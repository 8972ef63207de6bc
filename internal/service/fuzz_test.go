package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memories/protocols"
)

// FuzzCreateSession sends arbitrary bytes to POST /sessions. Whatever
// arrives, the handler must answer with one of the create statuses and
// not panic; a 201 names a session the list then shows, and any other
// answer leaves the pool as it was.
func FuzzCreateSession(f *testing.F) {
	mesi, err := protocols.Source("mesi")
	if err != nil {
		f.Fatal(err)
	}
	inline, err := json.Marshal(CreateRequest{Cache: "64KB", LineBytes: 64, ProtocolMap: mesi})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		// The README and cmd/memoriesd examples.
		`{"id":"demo","cache":"4MB","assoc":8}`,
		`{"cache":"4MB","assoc":8}`,
		`{"warm_start":"demo.ckpt"}`,
		// What bench and cmd/memloadgen send.
		`{"id":"c0","cache":"64MB","line_bytes":128,"assoc":4,"protocol":"mesi","cpus":8}`,
		string(inline),
		`{"cache":"64KB","policy":"plru","ecc":true,"cpus":255}`,
		// Retired fields, misspellings and bodies that are not a request.
		`{"cache":"64KB","seed":7}`,
		`{"workload":"tpcc","refs":1000}`,
		`{"cahce":"64KB"}`,
		`{"cache":"64KB"} {}`,
		`{"cache":"9999999999G","line_bytes":-1,"assoc":0}`,
		`{"id":"../x","protocol":"mesi","protocol_map":"x"}`,
		``,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{MaxDirectoryBytes: 1 << 20})
	h := srv.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := sessionCount(srv)
		rec := serve(http.MethodPost, "/sessions", string(body))
		switch rec.Code {
		case http.StatusCreated:
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
			if n := sessionCount(srv); n != before {
				t.Fatalf("status %d moved the session count %d → %d", rec.Code, before, n)
			}
			return
		default:
			t.Fatalf("status %d (%s), want one of 201/400/409/413/422/503", rec.Code, rec.Body)
		}
		var info SessionInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("201 body %q: %v", rec.Body, err)
		}
		var list []SessionInfo
		if err := json.Unmarshal(serve(http.MethodGet, "/sessions", "").Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		listed := false
		for _, s := range list {
			listed = listed || s.ID == info.ID
		}
		if !listed {
			t.Fatalf("created %q, list shows %+v", info.ID, list)
		}
		if rec := serve(http.MethodDelete, "/sessions/"+info.ID, ""); rec.Code != http.StatusOK {
			t.Fatalf("delete %q: status %d", info.ID, rec.Code)
		}
		if n := sessionCount(srv); n != before {
			t.Fatalf("create then delete moved the session count %d → %d", before, n)
		}
	})
}
