//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Line hints that the cache line holding p will be read soon. This
// architecture has no hint wired up, so it does nothing.
func Line(p unsafe.Pointer) {}
