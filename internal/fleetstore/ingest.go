package fleetstore

import (
	"sync"
	"sync/atomic"

	"hawkeye/internal/sim"
)

// Pipeline is the store's concurrent ingest front: a bounded queue in
// front of a worker pool, so a complaint storm from many fabric
// sessions degrades by shedding load (with accounting) instead of
// blocking the sessions mid-protocol. Offer never blocks; the workers
// do the store insertion, clustering, event publication and watermark
// sweeping off the session goroutines.
type Pipeline struct {
	st      *Store
	ch      chan Record
	wg      sync.WaitGroup
	workers int

	dropped atomic.Uint64
	// closeMu serializes Offer's enqueue against Close closing the
	// channel (a bare atomic flag would race send-on-closed).
	closeMu sync.RWMutex
	closed  bool

	// pending tracks queued-but-unprocessed records for Drain.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int

	// watermark is the highest trigger time processed (for sweeping).
	wmMu      sync.Mutex
	watermark sim.Time
}

// NewPipeline starts workers draining into st. depth <= 0 defaults to
// 1024; workers <= 0 defaults to 4. workers == 0 is allowed via
// NewPipelineManual for tests that want deterministic backpressure.
func NewPipeline(st *Store, depth, workers int) *Pipeline {
	if workers <= 0 {
		workers = 4
	}
	return newPipeline(st, depth, workers)
}

// NewPipelineManual builds a pipeline with no workers: records queue
// until Close drains them synchronously. Tests use it to fill the queue
// deterministically and observe the drop policy.
func NewPipelineManual(st *Store, depth int) *Pipeline {
	return newPipeline(st, depth, 0)
}

func newPipeline(st *Store, depth, workers int) *Pipeline {
	if depth <= 0 {
		depth = 1024
	}
	p := &Pipeline{st: st, ch: make(chan Record, depth), workers: workers}
	p.pendCond = sync.NewCond(&p.pendMu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Offer enqueues one record. It returns false — counting the drop —
// when the queue is full or the pipeline is closed; the caller sheds
// the record rather than stalling its session.
func (p *Pipeline) Offer(rec Record) bool {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		p.dropped.Add(1)
		return false
	}
	p.pendMu.Lock()
	p.pending++
	p.pendMu.Unlock()
	select {
	case p.ch <- rec:
		return true
	default:
		p.unpend()
		p.dropped.Add(1)
		return false
	}
}

func (p *Pipeline) unpend() {
	p.pendMu.Lock()
	p.pending--
	if p.pending == 0 {
		p.pendCond.Broadcast()
	}
	p.pendMu.Unlock()
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for rec := range p.ch {
		p.process(rec)
	}
}

func (p *Pipeline) process(rec Record) {
	p.st.Add(rec)
	p.advance(rec.At)
	p.unpend()
}

// advance moves the watermark and sweeps resolved incidents when it
// moves forward. Out-of-order records never move it backwards.
func (p *Pipeline) advance(at sim.Time) {
	p.wmMu.Lock()
	moved := at > p.watermark
	if moved {
		p.watermark = at
	}
	wm := p.watermark
	p.wmMu.Unlock()
	if moved {
		p.st.Sweep(wm)
	}
}

// Drain blocks until every record accepted so far has been processed.
// The analyzer calls it before serving a query so operators read their
// own writes. On a manual (worker-less) pipeline, Drain processes the
// queue itself — callers must not Offer concurrently in that mode.
func (p *Pipeline) Drain() {
	if p.workers == 0 {
		for {
			select {
			case rec := <-p.ch:
				p.process(rec)
			default:
				return
			}
		}
	}
	p.pendMu.Lock()
	for p.pending > 0 {
		p.pendCond.Wait()
	}
	p.pendMu.Unlock()
}

// Dropped counts records shed at the queue.
func (p *Pipeline) Dropped() uint64 { return p.dropped.Load() }

// Pending counts records accepted but not yet processed.
func (p *Pipeline) Pending() int {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	return p.pending
}

// Load is the queue fill fraction in [0,1] — the admission-control
// signal analyzd's load-shedding tiers key off.
func (p *Pipeline) Load() float64 {
	return float64(p.Pending()) / float64(cap(p.ch))
}

// Close stops intake, drains anything still queued (synchronously when
// the pipeline has no workers) and waits for the workers to exit.
// Offer after Close drops.
func (p *Pipeline) Close() {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return
	}
	p.closed = true
	close(p.ch)
	p.closeMu.Unlock()
	// With no workers, drain here so queued records are not lost.
	for rec := range p.ch {
		p.process(rec)
	}
	p.wg.Wait()
}
