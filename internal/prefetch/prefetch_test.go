package prefetch

import (
	"testing"
	"unsafe"
)

// A hint reads nothing back, writes nothing and cannot fault, not even on
// a nil pointer.
func TestLineChangesNothing(t *testing.T) {
	buf := []uint64{1, 2, 3}
	for i := range buf {
		Line(unsafe.Pointer(&buf[i]))
	}
	Line(nil)
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("buffer changed: %v", buf)
	}
}
