package tracefile

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes path all or nothing: write fills a temporary file in
// path's directory, which replaces path only once write, Sync and Close
// have all succeeded. A failed write leaves an existing path as it was
// and no partial trace behind. A symlinked path is written through to
// its target. The file gets mode 0644.
func WriteFile(path string, write func(io.Writer) error) error {
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil { // 0644 is what os.Create gives under the usual umask
		err = tmp.Chmod(0o644)
	}
	// Sync before close: a full disk or write-back failure must fail the
	// write, not leave a silently truncated trace behind.
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
