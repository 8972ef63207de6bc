package coherence

import (
	"os"
	"path/filepath"
	"testing"
)

// TestShippedProtocolFiles parses, compiles, and model-checks every
// protocol map file shipped in the repository's protocols/ directory —
// the artifacts a user would load through the console's loadmap command
// or the -protocol flag — and requires each to survive a
// format→reparse→format round trip byte-identically.
func TestShippedProtocolFiles(t *testing.T) {
	files, err := filepath.Glob("../../protocols/*.map")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected at least 4 shipped protocol files, found %v", files)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ParseMapFile(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		eng, err := Compile(tab)
		if err != nil {
			t.Errorf("%s: Compile: %v", path, err)
			continue
		}
		if eng.Name() != tab.Name || tab.Name == "" {
			t.Errorf("%s: engine name %q vs table %q", path, eng.Name(), tab.Name)
		}
		if err := Check(tab); err != nil {
			t.Errorf("%s: Check: %v", path, err)
		}
		// The canonical serialization must be a fixed point: format the
		// parsed table, reparse, format again, byte-identical.
		once := MapFileString(tab)
		reparsed, err := ParseMapFileString(once)
		if err != nil {
			t.Errorf("%s: reparse of formatted output: %v", path, err)
			continue
		}
		twice := MapFileString(reparsed)
		if once != twice {
			t.Errorf("%s: format→reparse→format is not byte-identical:\n--- first\n%s--- second\n%s", path, once, twice)
		}
	}
}
