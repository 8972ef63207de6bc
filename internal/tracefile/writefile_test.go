package tracefile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// WriteFile replaces its target only on success, writes through a
// symlink, and leaves nothing but the target behind either way.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "t.trace")
	link := filepath.Join(dir, "link.trace")
	if err := os.WriteFile(target, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("t.trace", link); err != nil {
		t.Skip("no symlinks here:", err)
	}
	check := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(target); err != nil || string(got) != want {
			t.Fatalf("target holds %q (%v), want %q", got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Fatalf("directory holds %d entries, want the target and the link", len(entries))
		}
	}

	boom := errors.New("boom")
	err := WriteFile(link, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	check("old")

	if err := WriteFile(link, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("new")
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("link was replaced by a file (%v)", err)
	}
	fi, err := os.Stat(target)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("target mode %v, want 0644", fi.Mode().Perm())
	}
}
