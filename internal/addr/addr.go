// Package addr provides address arithmetic shared by every cache-like
// structure in the emulator: power-of-two geometry, tag/index/offset
// splitting, and human-friendly size parsing and formatting.
//
// All caches in MemorIES (the emulated L2/L3 node directories, the host's
// private caches, the NUMA sparse directory and remote caches) address
// memory through the same tag/index/offset decomposition, so it lives here
// rather than in any one of them.
package addr

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Size units in bytes.
const (
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int64) bool {
	return v > 0 && v&(v-1) == 0
}

// Log2 returns the base-2 logarithm of v. It panics if v is not a positive
// power of two; geometry constructors validate before calling it.
func Log2(v int64) uint {
	if !IsPow2(v) {
		panic(fmt.Sprintf("addr: Log2 of non-power-of-two %d", v))
	}
	return uint(bits.TrailingZeros64(uint64(v)))
}

// Geometry describes a set-associative cache layout. The zero value is not
// usable; construct with NewGeometry.
type Geometry struct {
	SizeBytes int64 // total capacity in bytes
	LineSize  int64 // line (block) size in bytes
	Assoc     int   // ways per set; 1 = direct mapped
	Sets      int64 // number of sets (derived)

	offBits uint // low bits addressing within a line
	idxBits uint // bits selecting the set
}

// NewGeometry validates and derives a cache geometry. Size and line size
// must be powers of two; associativity must divide the number of lines.
// These mirror the MemorIES board constraints (Table 2 of the paper): the
// board supports 2MB-8GB capacity, direct-mapped through 8-way, and
// 128B-16KB lines, but the geometry type itself is range-agnostic so the
// host's small L1/L2 caches reuse it.
func NewGeometry(sizeBytes, lineSize int64, assoc int) (Geometry, error) {
	switch {
	case !IsPow2(sizeBytes):
		return Geometry{}, fmt.Errorf("addr: cache size %d is not a power of two", sizeBytes)
	case !IsPow2(lineSize):
		return Geometry{}, fmt.Errorf("addr: line size %d is not a power of two", lineSize)
	case assoc < 1:
		return Geometry{}, fmt.Errorf("addr: associativity %d < 1", assoc)
	case sizeBytes < lineSize:
		return Geometry{}, fmt.Errorf("addr: cache size %d smaller than line size %d", sizeBytes, lineSize)
	}
	lines := sizeBytes / lineSize
	if int64(assoc) > lines {
		return Geometry{}, fmt.Errorf("addr: associativity %d exceeds %d lines", assoc, lines)
	}
	if lines%int64(assoc) != 0 {
		return Geometry{}, fmt.Errorf("addr: %d lines not divisible by associativity %d", lines, assoc)
	}
	sets := lines / int64(assoc)
	if !IsPow2(sets) {
		return Geometry{}, fmt.Errorf("addr: derived set count %d is not a power of two", sets)
	}
	return Geometry{
		SizeBytes: sizeBytes,
		LineSize:  lineSize,
		Assoc:     assoc,
		Sets:      sets,
		offBits:   Log2(lineSize),
		idxBits:   Log2(sets),
	}, nil
}

// MustGeometry is NewGeometry for statically known-good parameters.
func MustGeometry(sizeBytes, lineSize int64, assoc int) Geometry {
	g, err := NewGeometry(sizeBytes, lineSize, assoc)
	if err != nil {
		panic(err)
	}
	return g
}

// Lines returns the total number of lines in the cache.
func (g Geometry) Lines() int64 { return g.Sets * int64(g.Assoc) }

// LineAddr returns the line-aligned address containing a.
func (g Geometry) LineAddr(a uint64) uint64 { return a &^ (uint64(g.LineSize) - 1) }

// Index returns the set index for address a.
func (g Geometry) Index(a uint64) int64 {
	return int64((a >> g.offBits) & (uint64(g.Sets) - 1))
}

// Tag returns the tag for address a (the address bits above the index).
func (g Geometry) Tag(a uint64) uint64 { return a >> (g.offBits + g.idxBits) }

// Rebuild reconstructs the line-aligned address from a tag and set index;
// it is the inverse of Tag/Index and is used when a victim line's address
// must be recovered for castout traffic.
func (g Geometry) Rebuild(tag uint64, index int64) uint64 {
	return tag<<(g.offBits+g.idxBits) | uint64(index)<<g.offBits
}

// String renders the geometry in the paper's style, e.g.
// "64MB 4-way, 128B lines".
func (g Geometry) String() string {
	way := fmt.Sprintf("%d-way", g.Assoc)
	if g.Assoc == 1 {
		way = "direct-mapped"
	}
	return fmt.Sprintf("%s %s, %s lines", FormatSize(g.SizeBytes), way, FormatSize(g.LineSize))
}

// FormatSize renders a byte count with binary units (128B, 64KB, 8MB, 1GB).
// Sizes are always powers of two in this codebase, so no fractions appear
// for valid geometries; other values fall back to the largest exact unit.
func FormatSize(b int64) string {
	switch {
	case b >= GB && b%GB == 0:
		return strconv.FormatInt(b/GB, 10) + "GB"
	case b >= MB && b%MB == 0:
		return strconv.FormatInt(b/MB, 10) + "MB"
	case b >= KB && b%KB == 0:
		return strconv.FormatInt(b/KB, 10) + "KB"
	default:
		return strconv.FormatInt(b, 10) + "B"
	}
}

// ParseSize parses strings like "128B", "64KB", "8MB", "1GB" (case
// insensitive, optional "iB" suffix accepted) into a byte count.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	t = strings.TrimSuffix(t, "IB")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "G"):
		mult, t = GB, strings.TrimSuffix(t, "G")
	case strings.HasSuffix(t, "M"):
		mult, t = MB, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "K"):
		mult, t = KB, strings.TrimSuffix(t, "K")
	case strings.HasSuffix(t, "B"):
		t = strings.TrimSuffix(t, "B")
		switch {
		case strings.HasSuffix(t, "G"):
			mult, t = GB, strings.TrimSuffix(t, "G")
		case strings.HasSuffix(t, "M"):
			mult, t = MB, strings.TrimSuffix(t, "M")
		case strings.HasSuffix(t, "K"):
			mult, t = KB, strings.TrimSuffix(t, "K")
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("addr: cannot parse size %q: %v", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("addr: negative size %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("addr: size %q overflows 64 bits", s)
	}
	return n * mult, nil
}
