package obs

import (
	"context"
	"net"
	"net/http"
	"strings"
	"time"
)

// Server is the opt-in observability HTTP endpoint. It serves:
//
//	/metrics       Prometheus text format
//	/metrics.json  one JSON snapshot object
//	/healthz       "ok"
//
// Every scrape requests fresh mirror publishes first, then snapshots,
// so values are at most one owner safe-point old.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the endpoint on addr (e.g. ":9090"). It returns once the
// listener is bound, so a following scrape cannot race the bind; the
// accept loop runs in a background goroutine.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	metrics := MetricsHandler(reg, nil)
	mux.Handle("/metrics", metrics)
	mux.Handle("/metrics.json", metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// MetricsHandler serves reg's metrics: a path ending in ".json" gets one
// JSON snapshot object, any other the Prometheus text exposition with
// split (nil: none) turning name segments into labels. Every request
// asks the mirrors' owners for a fresh publish before it snapshots.
func MetricsHandler(reg *Registry, split func(string) (string, []Label)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg.Request()
		if strings.HasSuffix(r.URL.Path, ".json") {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteJSON(w, reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteProm(w, reg.Snapshot(), split)
	})
}

// Addr returns the bound listen address (useful with ":0" in tests).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down, waiting briefly for in-flight scrapes.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
