package fleetstore_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
)

// TestHubChurnRacesPublish runs subscribe, unsubscribe and Close
// against a live publisher (meaningful under -race) for both event
// types the hub carries: the store's incident events and the rollup
// summarizer's window events. Per-subscriber and hub-wide drop counts
// must agree, every stream must end at Close, and a subscription made
// after Close must get a closed stream.
func TestHubChurnRacesPublish(t *testing.T) {
	t.Run("incidents", func(t *testing.T) {
		st := fleetstore.New(fleetstore.Config{Window: sim.Millisecond})
		churnHub(t, st.Hub(),
			func(int) *fleetstore.Sub[fleetstore.Event] { return st.Subscribe(fleetstore.AnyFilter(), 1) },
			func(i int) {
				st.Add(fleetstore.Record{Fabric: "fab", At: sim.Time(i) * 100, Victim: "v", Type: diagnosis.TypePFCStorm, Node: 5})
			})
	})
	t.Run("rollups", func(t *testing.T) {
		cfg := rollup.DefaultConfig()
		cfg.Pane = sim.Millisecond
		cfg.UpdateEvery = 1
		s := rollup.New(cfg)
		churnHub(t, s.Hub(),
			// Alternate closed-only and full subscriptions.
			func(i int) *fleetstore.Sub[rollup.Event] { return s.Subscribe(i%2 == 0, 1) },
			func(i int) {
				at := sim.Time(i) * 300_000
				s.ObserveRecord(&fleetstore.Record{Fabric: "fab", At: at, Type: diagnosis.TypePFCStorm})
				s.AdvanceWatermark(at)
			})
	})
}

func churnHub[E any](t *testing.T, hub *fleetstore.Hub[E], subscribe func(int) *fleetstore.Sub[E], publish func(int)) {
	const churners, rounds = 4, 200
	var dropped atomic.Uint64
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			publish(i)
		}
	}()

	held := make([]*fleetstore.Sub[E], churners)
	var churnWG sync.WaitGroup
	for g := range held {
		churnWG.Add(1)
		go func(g int) {
			defer churnWG.Done()
			for i := 0; i < rounds; i++ {
				sub := subscribe(i)
				select {
				case <-sub.Events():
				default:
				}
				hub.Unsubscribe(sub)
				hub.Unsubscribe(sub) // idempotent
				dropped.Add(sub.Dropped())
			}
			held[g] = subscribe(g)
		}(g)
	}
	churnWG.Wait()
	hub.Close() // the publisher is still running
	close(stop)
	pubWG.Wait()

	for _, sub := range held {
		for range sub.Events() {
			// Drain to the close: the stream must end.
		}
		dropped.Add(sub.Dropped())
	}
	if got, want := hub.Dropped(), dropped.Load(); got != want {
		t.Fatalf("hub-wide drops = %d, per-subscriber drops sum to %d", got, want)
	}
	if n := hub.Len(); n != 0 {
		t.Fatalf("%d subscriptions live after Close", n)
	}
	hub.Close() // idempotent
	late := subscribe(0)
	if _, ok := <-late.Events(); ok {
		t.Fatal("subscription made after Close got an open stream")
	}
	hub.Unsubscribe(late) // must not double-close
}
