package obs

import (
	"io"
	"sync"
	"time"
)

// Sampler periodically requests fresh mirror publishes, snapshots the
// registry, and emits the snapshot as a JSON line. It is the software
// analogue of the console PC polling the board's counters over the
// parallel port while an emulation run is in flight.
type Sampler struct {
	// Reg is the registry to snapshot. Required.
	Reg *Registry
	// Interval between snapshots; 0 selects one second.
	Interval time.Duration
	// JSONL, when non-nil, receives one JSON object per snapshot.
	JSONL io.Writer
	// Trace, when non-nil, is drained before each snapshot so trace
	// output interleaves with metric samples in arrival order.
	Trace *Tracer

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}

	errMu   sync.Mutex
	lastErr error
}

// Tick performs one sampling step synchronously: request publishes,
// give owners a moment to service them by draining the tracer, snapshot,
// and emit. Returns the snapshot.
//
// Note the request→snapshot ordering: a Tick observes values from each
// owner's previous safe point, and primes the next. Continuous sampling
// therefore lags one interval behind the live board, exactly like the
// hardware console did.
func (s *Sampler) Tick() *Snapshot {
	s.Reg.Request()
	if s.Trace != nil {
		s.Trace.Drain()
	}
	snap := s.Reg.Snapshot()
	if s.JSONL != nil {
		// A failed write means the JSONL stream is silently truncated
		// from here on; latch the error so the run can report it
		// instead of discovering a short file later.
		if err := WriteJSON(s.JSONL, snap); err != nil {
			s.errMu.Lock()
			s.lastErr = err
			s.errMu.Unlock()
		}
	}
	return snap
}

// Err returns the most recent JSONL write failure, if any. Check it
// after Stop: a non-nil error means the emitted stream is missing at
// least one snapshot.
func (s *Sampler) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}

// Start launches the periodic sampler goroutine. Safe to call once;
// subsequent calls before Stop are no-ops.
func (s *Sampler) Start() {
	interval := s.Interval
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done := s.stop, s.done
	s.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.Tick()
			}
		}
	}()
}

// Stop halts the sampler goroutine and takes one final snapshot so the
// emitted stream always ends with the run's closing state.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
		s.Tick()
	}
}
