// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package runs on: switches, hosts
// and telemetry all schedule callbacks at nanosecond-resolution virtual
// times. Determinism is guaranteed by a (time, sequence) ordering on events
// and by requiring all randomness to flow through a seeded *Rand.
//
// A packet-level trace is tens of millions of schedule/dispatch pairs, so
// the scheduler is built for throughput: fired events are recycled through
// a free list instead of garbage-collected (the steady state allocates
// nothing), and the priority queue is a 4-ary heap — shallower than a
// binary heap and with all four children of a node on one cache line.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Common durations, in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Handler is a callback executed when an event fires.
type Handler func()

// event is a scheduled callback. Events with equal times fire in
// scheduling order (seq), which keeps runs reproducible. Fired and
// cancelled events return to the engine's free list; gen increments on
// every recycle so stale EventRefs can never touch the slot's next life.
type event struct {
	at        Time
	seq       uint64
	fn        Handler
	index     int // heap index, -1 once popped
	gen       uint32
	cancelled bool
}

// EventRef refers to a scheduled event so it can be cancelled. The zero
// value refers to no event. A ref is pinned to one scheduling: once its
// event fires or is cancelled, the ref goes permanently inert even though
// the engine reuses the underlying slot.
type EventRef struct {
	ev  *event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Returns true if the event was pending.
func (r EventRef) Cancel() bool {
	if r.ev == nil || r.ev.gen != r.gen || r.ev.cancelled || r.ev.index < 0 {
		return false
	}
	r.ev.cancelled = true
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && !r.ev.cancelled && r.ev.index >= 0
}

// heapArity is the branching factor of the event queue. Quaternary wins
// over binary here because pops dominate: the tree is half as deep, and
// the four children scanned per level share a cache line of pointers.
const heapArity = 4

// Engine is a single-threaded discrete-event scheduler.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   []*event // 4-ary min-heap ordered by (at, seq)
	free    []*event // recycled events; bounds steady-state allocation at 0
	seq     uint64
	running bool
	stopped bool

	// Processed counts events executed so far (diagnostics and tests).
	Processed uint64
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending (non-cancelled) events.
// Cancelled events still occupy the heap until popped, so this is an
// upper bound used mainly by tests.
func (e *Engine) Len() int { return len(e.queue) }

// alloc takes an event from the free list, or makes one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a fired or cancelled event to the free list. The gen
// bump inerts every EventRef still pointing at it.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.cancelled = false
	ev.gen++
	e.free = append(e.free, ev)
}

// less orders events by (time, seq) — the engine's determinism contract.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev and sifts it up.
func (e *Engine) push(ev *event) {
	i := len(e.queue)
	e.queue = append(e.queue, ev)
	for i > 0 {
		parent := (i - 1) / heapArity
		p := e.queue[parent]
		if !less(ev, p) {
			break
		}
		e.queue[i] = p
		p.index = i
		i = parent
	}
	e.queue[i] = ev
	ev.index = i
}

// pop removes and returns the minimum event.
func (e *Engine) pop() *event {
	q := e.queue
	root := q[0]
	root.index = -1
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n == 0 {
		return root
	}
	// Sift the displaced last element down from the root.
	q = e.queue
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(q[c], q[best]) {
				best = c
			}
		}
		if !less(q[best], last) {
			break
		}
		q[i] = q[best]
		q[i].index = i
		i = best
	}
	q[i] = last
	last.index = i
	return root
}

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a model bug.
func (e *Engine) At(t Time, fn Handler) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.push(ev)
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains, until the horizon is
// passed, or until Stop is called. It returns the final virtual time.
// Events scheduled exactly at the horizon still execute.
func (e *Engine) Run(horizon Time) Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.at > horizon {
			e.now = horizon
			return e.now
		}
		e.pop()
		if next.cancelled {
			e.recycle(next)
			continue
		}
		e.now = next.at
		e.Processed++
		fn := next.fn
		// Recycle before dispatch: the handler may schedule immediately
		// and reuse this very slot; its own ref is already inert.
		e.recycle(next)
		fn()
	}
	if e.now < horizon && horizon < MaxTime && len(e.queue) == 0 {
		e.now = horizon
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time { return e.Run(MaxTime) }
