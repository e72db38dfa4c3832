package fleetstore

import (
	"sync"
	"sync/atomic"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/topo"
)

// Filter selects which incident events a subscriber receives. Zero
// values mean "any" (Fabric == "", Types == nil, Node < 0).
type Filter struct {
	Fabric string
	Types  []diagnosis.AnomalyType
	Node   topo.NodeID
}

// AnyFilter matches every event.
func AnyFilter() Filter { return Filter{Node: AnyNode} }

func (f *Filter) matches(ev *Event) bool {
	inc := &ev.Incident
	if f.Node >= 0 && inc.Node != f.Node {
		return false
	}
	if f.Fabric != "" {
		found := false
		for _, fb := range inc.Fabrics {
			if fb == f.Fabric {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(f.Types) == 0 {
		return true
	}
	for _, t := range f.Types {
		if inc.Type == t {
			return true
		}
	}
	return false
}

// Subscribe registers a live incident-event subscriber on the store's
// hub (buf <= 0 takes the hub default).
func (st *Store) Subscribe(f Filter, buf int) *Sub[Event] {
	return st.hub.Subscribe(f.matches, buf)
}

// Sub is one live subscription. Events arrive on Events(); a subscriber
// that falls behind its buffer loses events (counted, never blocking
// the publisher) rather than stalling it.
type Sub[E any] struct {
	match   func(*E) bool
	ch      chan E
	dropped atomic.Uint64
	closed  bool // guarded by the hub mutex
}

// Events is the subscription stream. It is closed by Unsubscribe (or
// hub Close), after which no more events arrive.
func (s *Sub[E]) Events() <-chan E { return s.ch }

// Dropped counts events this subscriber lost to a full buffer.
func (s *Sub[E]) Dropped() uint64 { return s.dropped.Load() }

// Hub fans events out to subscribers. It is the one subscriber fan-out:
// the store's incident lifecycle events and the rollup summarizer's
// window events both ride it.
type Hub[E any] struct {
	buf     int
	mu      sync.Mutex
	subs    map[*Sub[E]]struct{}
	closed  bool
	dropped atomic.Uint64 // hub-wide slow-subscriber losses
}

// NewHub builds a hub whose subscriptions default to buf events of
// buffer.
func NewHub[E any](buf int) *Hub[E] {
	return &Hub[E]{buf: buf, subs: make(map[*Sub[E]]struct{})}
}

// Subscribe registers a subscriber that receives the events match
// accepts (every event when match is nil), with the given buffer depth
// (the hub default when <= 0). Once the hub is closed the returned
// stream is already closed.
func (h *Hub[E]) Subscribe(match func(*E) bool, buf int) *Sub[E] {
	if buf <= 0 {
		buf = h.buf
	}
	s := &Sub[E]{match: match, ch: make(chan E, buf)}
	h.mu.Lock()
	if h.closed {
		close(s.ch)
		s.closed = true
	} else {
		h.subs[s] = struct{}{}
	}
	h.mu.Unlock()
	return s
}

// Unsubscribe removes the subscriber and closes its stream. Safe to
// call more than once.
func (h *Hub[E]) Unsubscribe(s *Sub[E]) {
	h.mu.Lock()
	delete(h.subs, s)
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	h.mu.Unlock()
}

// Close closes every subscription stream; later subscriptions get a
// closed stream. Idempotent.
func (h *Hub[E]) Close() {
	h.mu.Lock()
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		s.closed = true
		close(s.ch)
	}
	h.mu.Unlock()
}

// Publish delivers an event to every matching subscriber without ever
// blocking: a full buffer drops the event for that subscriber and
// counts it — backpressure must not propagate to the publisher (ingest,
// and through it the fabric sessions).
func (h *Hub[E]) Publish(ev E) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		if s.match != nil && !s.match(&ev) {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped.Add(1)
			h.dropped.Add(1)
		}
	}
}

// Dropped counts events lost to slow subscribers, hub-wide.
func (h *Hub[E]) Dropped() uint64 { return h.dropped.Load() }

// Len counts live subscriptions.
func (h *Hub[E]) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
