package workload

import (
	"fmt"

	"memories/internal/addr"
)

// WebConfig parameterizes the web-server workload (§5.3 closes with "We
// can also use the MemorIES board for scaling studies involving
// transaction processing, decision support, and web server workloads").
// The model is a static-content server: a large document store with
// Zipf-popular documents streamed sequentially per request, hot per-
// connection socket buffers, shared kernel protocol-control structures,
// and an access log.
type WebConfig struct {
	NumCPUs int
	// DocBytes is the document store (disk cache) size.
	DocBytes int64
	// MeanDocBytes is the average document length; requests stream a
	// whole document through the cache hierarchy.
	MeanDocBytes int64
	// Connections is the number of simultaneously active connections;
	// each owns a socket-buffer slot.
	Connections int
	// Skew is the document-popularity Zipf skew (>1).
	Skew float64
	Seed uint64
}

// DefaultWebConfig returns a 1999-scale busy static server: 16GB of
// content, 8KB mean documents, 4096 connections.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		NumCPUs:      8,
		DocBytes:     16 * addr.GB,
		MeanDocBytes: 8 * addr.KB,
		Connections:  4096,
		Skew:         1.3,
		Seed:         6,
	}
}

// ScaledWebConfig shrinks the content store by factor.
func ScaledWebConfig(factor int64) WebConfig {
	cfg := DefaultWebConfig()
	if factor > 1 {
		cfg.DocBytes /= factor
		if cfg.DocBytes < 4*addr.MB {
			cfg.DocBytes = 4 * addr.MB
		}
	}
	return cfg
}

// Web is the web-server reference generator.
type Web struct {
	cfg     WebConfig
	docs    Region
	sockets Region
	kernel  Region
	logreg  Region

	r        *RNG
	docZipf  *Zipf
	docCount int64 // MeanDocBytes-sized documents in docs

	cpu    int
	st     []webCPUState
	logPos int64
}

type webCPUState struct {
	docBase int64 // current document's base offset
	docLeft int64 // bytes left to stream
	conn    int64 // connection owning the current request
}

// NewWeb builds the generator.
func NewWeb(cfg WebConfig) *Web {
	if cfg.NumCPUs <= 0 {
		panic("workload: NumCPUs must be positive")
	}
	if cfg.MeanDocBytes <= 0 {
		cfg.MeanDocBytes = 8 * addr.KB
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 1024
	}
	if cfg.Skew <= 1 {
		cfg.Skew = 1.3
	}
	l := NewLayout()
	w := &Web{
		cfg:     cfg,
		docs:    l.Region(cfg.DocBytes),
		sockets: l.Region(int64(cfg.Connections) * 16 * addr.KB),
		kernel:  l.Region(8 * addr.MB),
		logreg:  l.Region(64 * addr.MB),
		r:       NewRNG(cfg.Seed),
		st:      make([]webCPUState, cfg.NumCPUs),
	}
	w.docCount = w.docs.Size / cfg.MeanDocBytes
	w.docZipf = NewZipf(w.r, cfg.Skew, w.docCount)
	return w
}

// Name implements Generator.
func (w *Web) Name() string { return fmt.Sprintf("web-%s", addr.FormatSize(w.cfg.DocBytes)) }

// Footprint implements Generator.
func (w *Web) Footprint() int64 {
	return w.docs.Size + w.sockets.Size + w.kernel.Size + w.logreg.Size
}

// Next implements Generator.
func (w *Web) Next() (Ref, bool) {
	cpu := nextCPU(&w.cpu, w.cfg.NumCPUs)
	s := &w.st[cpu]

	if s.docLeft <= 0 {
		// Finish the previous request: append to the access log and run
		// the kernel protocol path, then pick the next document.
		switch w.r.Intn(3) {
		case 0:
			a := w.logreg.At(w.logPos)
			w.logPos += 64
			return Ref{Addr: a, Write: true, CPU: cpu, Instrs: 4}, true
		case 1:
			// Kernel TCP/route structures: small, shared, read-mostly.
			a := w.kernel.Base + uint64(w.r.Intn(w.kernel.Size)&^63)
			return Ref{Addr: a, Write: w.r.Chance(0.2), CPU: cpu, Instrs: 8}, true
		}
		// Once per document, not per reference, and docBase is checkpointed
		// with the sign this % gives it: the division stays.
		scattered := w.docZipf.Sample() * 2654435761 % w.docCount
		s.docBase = scattered * w.cfg.MeanDocBytes
		// Document lengths vary 1x-4x around the mean.
		s.docLeft = w.cfg.MeanDocBytes * (1 + w.r.Intn(4)) / 2
		s.conn = w.r.Intn(int64(w.cfg.Connections))
	}

	// Stream the document: read content, with a socket-buffer write per
	// few content lines (send batching).
	off := s.docBase + (w.cfg.MeanDocBytes - s.docLeft)
	s.docLeft -= 64
	if s.docLeft%256 == 192 {
		// conn is below Connections (Checkpoint refuses one that is not),
		// so its buffer needs no wrap.
		a := w.sockets.Base + uint64(s.conn*16*addr.KB) + (uint64(off)%uint64(16*addr.KB))&^63
		return Ref{Addr: a, Write: true, CPU: cpu, Instrs: 3}, true
	}
	return Ref{Addr: w.docs.At(off), Write: false, CPU: cpu, Instrs: 3}, true
}
