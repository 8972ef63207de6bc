//go:build amd64 || arm64

package prefetch

import "unsafe"

// Line hints that the cache line holding p will be read soon.
//
//go:noescape
func Line(p unsafe.Pointer)
