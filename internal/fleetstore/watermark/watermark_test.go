package watermark

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// far is a deadline no passing test reaches: a wait that needs it has
// lost its wake-up and fails by hanging into the test timeout.
func far() time.Time { return time.Now().Add(time.Hour) }

func TestWatermarkWait(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, w *Watermark)
	}{
		{"advance before wait returns without blocking", func(t *testing.T, w *Watermark) {
			w.Advance(7)
			if !w.Wait(7, time.Time{}, nil) || !w.Wait(3, time.Time{}, nil) {
				t.Fatal("target at or below the watermark did not return true")
			}
		}},
		{"advance is monotone", func(t *testing.T, w *Watermark) {
			w.Advance(9)
			w.Advance(4)
			if got := w.Load(); got != 9 {
				t.Fatalf("Load = %d after Advance(9), Advance(4); want 9", got)
			}
		}},
		{"wake on advance", func(t *testing.T, w *Watermark) {
			got := make(chan bool)
			go func() { got <- w.Wait(5, far(), nil) }()
			w.Advance(4) // short of the target: the waiter must go back to sleep
			w.Advance(5)
			if !<-got {
				t.Fatal("Wait(5) = false after Advance(5)")
			}
		}},
		{"many waiters, each woken by its own target", func(t *testing.T, w *Watermark) {
			const n = 32
			var returned atomic.Uint64
			dones := make([]chan struct{}, n+1)
			for target := uint64(1); target <= n; target++ {
				target, done := target, make(chan struct{})
				dones[target] = done
				go func() {
					defer close(done)
					if !w.Wait(target, far(), nil) {
						t.Errorf("Wait(%d) = false", target)
					}
					if got := w.Load(); got < target {
						t.Errorf("Wait(%d) returned at watermark %d", target, got)
					}
					returned.Add(1)
				}()
			}
			for v := uint64(1); v <= n; v++ {
				w.Advance(v)
				<-dones[v] // waiter v needs nothing past Advance(v)
			}
			if got := returned.Load(); got != n {
				t.Fatalf("%d waiters returned, want %d", got, n)
			}
		}},
		{"deadline expiry", func(t *testing.T, w *Watermark) {
			w.Advance(1)
			if w.Wait(2, time.Now().Add(5*time.Millisecond), nil) {
				t.Fatal("Wait(2) = true at watermark 1")
			}
			if w.Wait(2, time.Time{}, nil) {
				t.Fatal("Wait(2) with a past deadline = true at watermark 1")
			}
		}},
		{"abandon ends the wait on Wake", func(t *testing.T, w *Watermark) {
			var gone atomic.Bool
			got := make(chan bool)
			go func() { got <- w.Wait(1, far(), gone.Load) }()
			w.Wake() // nothing changed: the waiter must go back to sleep
			gone.Store(true)
			w.Wake()
			if <-got {
				t.Fatal("abandoned Wait = true")
			}
			if w.Wait(1, far(), gone.Load) {
				t.Fatal("Wait with abandon already true = true")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, new(Watermark)) })
	}
}

// TestWatermarkNoLostWakeup ping-pongs two goroutines over two
// watermarks 10k times, each Advance racing the other side's
// check-then-block with nothing but the wake-up to end the wait: one
// lost wake-up hangs the test.
func TestWatermarkNoLostWakeup(t *testing.T) {
	const rounds = 10000
	var ping, pong Watermark
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= rounds; v++ {
			ping.Advance(v)
			if !pong.Wait(v, far(), nil) {
				t.Errorf("pong.Wait(%d) = false", v)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= rounds; v++ {
			if !ping.Wait(v, far(), nil) {
				t.Errorf("ping.Wait(%d) = false", v)
				return
			}
			pong.Advance(v)
		}
	}()
	wg.Wait()

	// And the abandon side: a condition flipped just before Wake is
	// never missed, however the flip lands against the waiter's check.
	for i := 0; i < rounds; i++ {
		var w Watermark
		var gone atomic.Bool
		done := make(chan struct{})
		go func() {
			defer close(done)
			if w.Wait(1, far(), gone.Load) {
				t.Error("abandoned Wait = true")
			}
		}()
		gone.Store(true)
		w.Wake()
		<-done
	}
}
