// Package watermark is the fleet tier's one way to wait: a monotone
// sequence number goroutines block on until it reaches their target.
// The replicated write path is a chain of such waits — the writer on
// the follower's ack, the drain on the follower's catch-up, a held
// write on a reshard phase change — and each blocks on the event
// itself, so a wait costs a channel wake-up, not a timer period.
package watermark

import (
	"sync"
	"sync/atomic"
	"time"
)

// Watermark is a uint64 that only rises, plus a wake-up for whoever is
// waiting on it. The zero value is ready at 0. Load is lock-free;
// Advance allocates nothing while nobody waits.
type Watermark struct {
	v  atomic.Uint64
	mu sync.Mutex
	// ch is what current waiters block on: closed and dropped by the
	// next Advance or Wake, created by the first waiter after that.
	ch chan struct{}
}

// Load returns the current value.
func (w *Watermark) Load() uint64 { return w.v.Load() }

// Advance raises the watermark to v and wakes every waiter; a v at or
// below the current value is a no-op, so concurrent advancers need no
// ordering among themselves.
func (w *Watermark) Advance(v uint64) {
	w.mu.Lock()
	if v > w.v.Load() {
		w.v.Store(v)
		w.wakeLocked()
	}
	w.mu.Unlock()
}

// Wake makes every waiter re-evaluate its abandon condition. Call it
// after changing whatever that condition reads.
func (w *Watermark) Wake() {
	w.mu.Lock()
	w.wakeLocked()
	w.mu.Unlock()
}

func (w *Watermark) wakeLocked() {
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
}

// Wait blocks until the watermark reaches target and reports true, or
// reports false once the deadline passes or abandon (nil for never)
// says the target can no longer be reached. abandon is evaluated
// before each block; a caller whose abandon condition changes must
// Wake, and the change is then never missed: the waiter either took
// its channel before the Wake closed it, or evaluates abandon after
// the change.
func (w *Watermark) Wait(target uint64, deadline time.Time, abandon func() bool) bool {
	var timer *time.Timer
	for w.v.Load() < target {
		w.mu.Lock()
		if w.ch == nil {
			w.ch = make(chan struct{})
		}
		ch := w.ch
		w.mu.Unlock()
		// Re-check now that ch is held: any Advance or Wake from here on
		// closes it.
		if w.v.Load() >= target {
			return true
		}
		if abandon != nil && abandon() {
			return false
		}
		if timer == nil {
			d := time.Until(deadline)
			if d <= 0 {
				return false
			}
			// The deadline arm: one timer per blocking Wait, which fires
			// only when the event never comes.
			timer = time.NewTimer(d)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			return w.v.Load() >= target
		}
	}
	return true
}
