package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memories/internal/bus"
)

// A Tap puts boards beside the host instead of inside bus.Issue: the
// paper's board is separate hardware that snoops the bus passively and
// costs the host nothing (§1). The tap is its boards' one device on the
// bus; it answers every transaction Null and, during Run, copies each
// into a batch of tapBatchLen transactions. Every full batch is handed,
// shared read-only, to one worker goroutine per board, which feeds it to
// SnoopBatch and acknowledges it; the last acknowledgement returns the
// batch to the pool. A board therefore sees exactly the stream it would
// see attached directly, in the same order, and its counters end equal.
//
// Workers live only inside Run: Run hands over the partial batch and
// waits for every worker to exit before it returns, so after Run the
// boards are quiescent and owned by the caller again, and no goroutine
// or board outlives the run. Outside Run the tap is synchronous: each
// transaction goes straight to every board's Snoop and its combined
// response to ObserveResponse, as if the boards were attached directly.
//
// Boards that post retries cannot ride a tap (NewTap refuses them): a
// retry must be answered in the transaction's own snoop window.
type Tap struct {
	boards []*Board
	// batch is the batch being filled; nil outside Run, which is what
	// makes Snoop synchronous.
	batch *tapBatch
	// free holds the batches every board has acknowledged; feeds[i]
	// carries the batches handed to board i's worker, then the nil that
	// ends the run. Both are made at the first Run.
	free  chan *tapBatch
	feeds []chan *tapBatch
	done  sync.WaitGroup
}

// tapBatch is one pooled batch: the copied transactions and the number
// of boards that have yet to acknowledge it.
type tapBatch struct {
	txs  []bus.Transaction
	refs atomic.Int32
}

// tapBatchLen transactions form a batch, and tapDepth batches form the
// pool: 2 × 4096 × 48 B = 384 KiB. A worker may lag the host by one
// batch before the host waits for it.
const (
	tapBatchLen = 4096
	tapDepth    = 2
)

// NewTap builds a tap that feeds the given boards. It refuses a board
// that posts retries, and an empty list.
func NewTap(boards ...*Board) (*Tap, error) {
	if len(boards) == 0 {
		return nil, fmt.Errorf("core: a tap needs at least one board")
	}
	for _, b := range boards {
		if b.cfg.RetryOnOverflow {
			return nil, fmt.Errorf("core: a RetryOnOverflow board must answer each snoop itself and cannot ride a tap")
		}
	}
	return &Tap{boards: boards}, nil
}

// BusID implements bus.Snooper: negative, so the tap sees every
// transaction.
func (t *Tap) BusID() int { return -1 }

// Snoop implements bus.Snooper. The tap never retries.
func (t *Tap) Snoop(tx *bus.Transaction) bus.SnoopResponse {
	if t.batch == nil {
		for _, b := range t.boards {
			b.Snoop(tx)
		}
		return bus.RespNull
	}
	// A full batch is handed over at the next transaction, not at once, so
	// ObserveResponse can still withdraw the last one.
	if len(t.batch.txs) == tapBatchLen {
		t.hand()
	}
	t.batch.txs = append(t.batch.txs, *tx)
	return bus.RespNull
}

// ObserveResponse implements bus.ResponseObserver. Outside Run it passes
// every combined response on. During Run, a transaction another device
// retried is withdrawn from the batch and replayed, once every worker is
// idle, through each board's own Snoop and ObserveResponse: the boards
// count it as a withdrawn admission exactly as if attached directly.
func (t *Tap) ObserveResponse(tx *bus.Transaction, combined bus.SnoopResponse) {
	if t.batch == nil {
		for _, b := range t.boards {
			b.ObserveResponse(tx, combined)
		}
		return
	}
	if combined != bus.RespRetry {
		return
	}
	t.batch.txs = t.batch.txs[:len(t.batch.txs)-1]
	t.quiesce()
	for _, b := range t.boards {
		b.Snoop(tx)
		b.ObserveResponse(tx, combined)
	}
}

// Run runs fn, typically a host run, with the boards fed beside it, one
// worker goroutine per board. When fn returns it hands over the partial
// batch and waits for every worker to exit; only then may the caller
// Flush or read the boards.
func (t *Tap) Run(fn func()) {
	if t.free == nil {
		t.free = make(chan *tapBatch, tapDepth)
		for range tapDepth {
			t.free <- &tapBatch{txs: make([]bus.Transaction, 0, tapBatchLen)}
		}
		t.feeds = make([]chan *tapBatch, len(t.boards))
		for i := range t.feeds {
			t.feeds[i] = make(chan *tapBatch, tapDepth+1)
		}
	}
	t.batch = <-t.free
	t.batch.txs = t.batch.txs[:0]
	t.done.Add(len(t.boards))
	for i, b := range t.boards {
		go t.work(b, t.feeds[i])
	}
	defer t.stop()
	fn()
}

// stop ends a run: it hands over the partial batch, tells every worker
// to exit, waits for them and returns the tap to synchronous mode.
func (t *Tap) stop() {
	if len(t.batch.txs) > 0 {
		t.hand()
	}
	for _, f := range t.feeds {
		f <- nil
	}
	t.done.Wait()
	t.free <- t.batch
	t.batch = nil
}

// work is one board's worker: it feeds each batch to the board in hand
// order and acknowledges it, until the nil that ends the run.
func (t *Tap) work(b *Board, feed <-chan *tapBatch) {
	defer t.done.Done()
	for bt := <-feed; bt != nil; bt = <-feed {
		b.SnoopBatch(bt.txs)
		if bt.refs.Add(-1) == 0 {
			t.free <- bt
		}
	}
}

// hand passes the filling batch to every worker and takes the next free
// one, waiting while every batch is still out.
func (t *Tap) hand() {
	bt := t.batch
	bt.refs.Store(int32(len(t.boards)))
	for _, f := range t.feeds {
		f <- bt
	}
	t.batch = <-t.free
	t.batch.txs = t.batch.txs[:0]
}

// quiesce hands over what the filling batch holds and waits until every
// batch handed over is acknowledged, so that no worker is touching its
// board. The workers stay running; the filling batch is empty after.
func (t *Tap) quiesce() {
	if len(t.batch.txs) > 0 {
		t.hand()
	}
	var out [tapDepth - 1]*tapBatch
	for i := range out {
		out[i] = <-t.free
	}
	for _, bt := range out {
		t.free <- bt
	}
}
