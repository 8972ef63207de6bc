// Package prefetch issues non-blocking cache-prefetch hints.
//
// A hint asks the processor to start bringing a line toward its L1 and
// returns at once: unlike an ordinary load, it does not wait for the line
// and never blocks retirement, so a miss it starts overlaps whatever the
// caller does next. It changes no memory and cannot fault; a hint for a
// line already cached costs almost nothing. On amd64 it is PREFETCHT0, on
// arm64 PRFM PLDL1KEEP, and on every other GOARCH a no-op (DESIGN.md §4e,
// "Look-ahead with a prefetch hint").
package prefetch
