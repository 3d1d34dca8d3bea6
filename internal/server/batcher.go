package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cisgraph/internal/graph"
)

// Errors returned by Batcher.Offer.
var (
	// ErrQueueFull reports that the bounded ingest queue cannot take the
	// offered updates under OverflowReject (HTTP 429 at the API).
	ErrQueueFull = errors.New("server: ingest queue full")
	// ErrDraining reports that the batcher no longer accepts updates
	// because shutdown has begun (HTTP 503 at the API).
	ErrDraining = errors.New("server: draining, not accepting updates")
)

// CutReason records why a batch was cut from the gathering window.
type CutReason int

const (
	// CutSize: the window reached BatchMaxSize updates.
	CutSize CutReason = iota
	// CutTimer: BatchMaxWait elapsed with a non-empty window.
	CutTimer
	// CutDrain: shutdown flushed the remaining window.
	CutDrain
)

// String names the reason (used for counters and logs).
func (r CutReason) String() string {
	switch r {
	case CutSize:
		return "size"
	case CutTimer:
		return "timer"
	case CutDrain:
		return "drain"
	default:
		return "unknown"
	}
}

// Batcher is the server-side ingestion window: concurrent producers Offer
// updates into a bounded queue, and a gather goroutine cuts time-or-size-
// bounded batches from it (the paper's batch-gathering window) into a
// capacity-1 hand-off that the server's committer consumes (commit.go).
//
// The hand-off preserves the paper's delayed-work overlap: while the
// committer is applying batch N — which for CISO-family engines includes the
// delayed deletions processed after the early answer — the gather loop keeps
// accumulating and can cut the *next* batch, so gathering batch N+1 overlaps
// the tail of batch N exactly as the accelerator overlaps delayed updates
// with the next gathering phase (PAPER.md). At most one cut batch waits in
// the hand-off buffer; everything else stays in the queue where shedding and
// size accounting apply.
type Batcher struct {
	maxSize int
	maxWait time.Duration
	cap     int
	policy  OverflowPolicy

	mu       sync.Mutex
	pending  []graph.Update
	draining bool

	notify  chan struct{} // capacity 1: "pending changed"
	drainCh chan struct{} // closed once when Drain begins
	// cuts is the single in-flight hand-off (capacity 1). The consumer calls
	// release once per batch it has fully applied; the gather loop closes
	// cuts (and gathered) after the drain flush.
	cuts     chan cutBatch
	gathered chan struct{}
	released chan struct{} // capacity 1: "outstanding reached zero"

	outstanding atomic.Int64 // batches cut but not yet released
	drainOnce   sync.Once
}

type cutBatch struct {
	batch  []graph.Update
	reason CutReason
}

// NewBatcher starts the gather goroutine. Cut batches arrive on b.cuts in
// cut order; exactly one consumer must receive them and release each.
func NewBatcher(maxSize int, maxWait time.Duration, capacity int, policy OverflowPolicy) *Batcher {
	b := &Batcher{
		maxSize:  maxSize,
		maxWait:  maxWait,
		cap:      capacity,
		policy:   policy,
		notify:   make(chan struct{}, 1),
		drainCh:  make(chan struct{}),
		cuts:     make(chan cutBatch, 1),
		gathered: make(chan struct{}),
		released: make(chan struct{}, 1),
	}
	go b.gatherLoop()
	return b
}

// Offer appends updates to the ingest queue. It returns how many were
// accepted and how many *queued* updates were shed to make room (always 0
// under OverflowReject). Offer never blocks: full-queue behaviour is decided
// by the overflow policy, and an over-capacity remainder of the offered
// slice itself is rejected (accepted < len(ups)) rather than queued.
func (b *Batcher) Offer(ups []graph.Update) (accepted, shed int, err error) {
	if len(ups) == 0 {
		return 0, 0, nil
	}
	b.mu.Lock()
	if b.draining {
		b.mu.Unlock()
		return 0, 0, ErrDraining
	}
	free := b.cap - len(b.pending)
	switch {
	case len(ups) <= free:
		// Fits.
	case b.policy == OverflowReject:
		b.mu.Unlock()
		return 0, 0, ErrQueueFull
	default: // OverflowShed
		need := len(ups) - free
		if need > len(b.pending) {
			need = len(b.pending)
		}
		b.pending = b.pending[:copy(b.pending, b.pending[need:])]
		shed = need
		if free = b.cap - len(b.pending); len(ups) > free {
			ups = ups[len(ups)-free:] // keep the freshest of the offered
		}
	}
	b.pending = append(b.pending, ups...)
	accepted = len(ups)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	return accepted, shed, nil
}

// Pending reports the number of queued (not yet cut) updates.
func (b *Batcher) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Quiesced reports that no update is queued, cut, or being applied — the
// published answers fully reflect every accepted update.
func (b *Batcher) Quiesced() bool {
	b.mu.Lock()
	n := len(b.pending)
	b.mu.Unlock()
	return n == 0 && b.outstanding.Load() == 0
}

// release marks one received batch as fully applied.
func (b *Batcher) release() {
	if b.outstanding.Add(-1) == 0 {
		select {
		case b.released <- struct{}{}:
		default:
		}
	}
}

// Drain stops accepting updates, flushes the remaining window into the
// hand-off, and returns once the consumer has released every cut batch.
// Idempotent.
func (b *Batcher) Drain() {
	b.drainOnce.Do(func() {
		b.mu.Lock()
		b.draining = true
		b.mu.Unlock()
		close(b.drainCh)
	})
	<-b.gathered
	for b.outstanding.Load() != 0 {
		<-b.released
	}
}

// take cuts the next batch under the window rules: a full window always
// cuts; a partial window cuts when forced (timer) or draining. Returns nil
// when nothing should be cut yet.
func (b *Batcher) take(force bool) (batch []graph.Update, reason CutReason) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pending)
	if n == 0 {
		return nil, 0
	}
	switch {
	case n >= b.maxSize:
		n, reason = b.maxSize, CutSize
	case b.draining:
		reason = CutDrain
	case force:
		reason = CutTimer
	default:
		return nil, 0
	}
	batch = append([]graph.Update(nil), b.pending[:n]...)
	b.pending = b.pending[:copy(b.pending, b.pending[n:])]
	b.outstanding.Add(1)
	return batch, reason
}

// gatherLoop owns the batching window: it cuts every size-ready batch
// immediately, arms the window timer whenever a partial window exists, and
// flushes everything on drain before closing the hand-off channel.
func (b *Batcher) gatherLoop() {
	defer close(b.gathered)
	defer close(b.cuts)
	var timer *time.Timer
	var timerC <-chan time.Time
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
		}
		timerC = nil
	}
	for {
		// Cut everything that is ready right now (size cuts, or any
		// remainder while draining).
		for {
			batch, reason := b.take(false)
			if batch == nil {
				break
			}
			stopTimer() // a cut closes the current window
			b.cuts <- cutBatch{batch, reason}
		}
		b.mu.Lock()
		n, draining := len(b.pending), b.draining
		b.mu.Unlock()
		if draining && n == 0 {
			stopTimer()
			return
		}
		if n > 0 && timerC == nil {
			timer = time.NewTimer(b.maxWait)
			timerC = timer.C
		}
		select {
		case <-b.notify:
		case <-timerC:
			timerC = nil
			if batch, reason := b.take(true); batch != nil {
				b.cuts <- cutBatch{batch, reason}
			}
		case <-b.drainCh:
			// Loop around: draining take() cuts the remainder.
		}
	}
}
