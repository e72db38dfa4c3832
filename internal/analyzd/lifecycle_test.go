package analyzd

import (
	"errors"
	"sync"
	"testing"

	"hawkeye/internal/wire"
)

// TestCloseIdempotentConcurrent: any number of goroutines may race
// Close; every call returns the same result and the server lands in
// the stopped state exactly once.
func TestCloseIdempotentConcurrent(t *testing.T) {
	s, err := ListenOpts("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Close()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close %d returned %v, Close 0 returned %v", i, err, errs[0])
		}
	}
	if got := s.State(); got != StateStopped {
		t.Fatalf("state after close = %v, want stopped", got)
	}
	// And again, after the dust settled.
	if err := s.Close(); err != errs[0] {
		t.Fatalf("late Close returned %v", err)
	}
}

// TestHealthOverTheWire: any session kind can probe the lifecycle
// state and the load counters.
func TestHealthOverTheWire(t *testing.T) {
	dir := t.TempDir()
	s, err := ListenOpts("127.0.0.1:0", Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.State(); got != StateServing {
		t.Fatalf("state = %v, want serving", got)
	}

	op, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	h, err := op.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "serving" || !h.Durable {
		t.Fatalf("health = %+v, want serving+durable", h)
	}
	if h.Sessions != 1 {
		t.Fatalf("health sessions = %d, want 1", h.Sessions)
	}

	// Fabric sessions can probe too.
	fab, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRestartRecoversFleetStore drives diagnoses into a durable
// server, closes it (flushing the queue and the WAL), and checks a
// fresh server over the same data directory serves the same incidents.
func TestServerRestartRecoversFleetStore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir}
	s, err := ListenOpts("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	fab.Close()
	// Close is the drain barrier for the async ingest queue: counters
	// read before it race the pipe worker.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.Ingested+before.Dropped != n {
		t.Fatalf("pre-restart ingested=%d dropped=%d, want %d total", before.Ingested, before.Dropped, n)
	}

	s2, err := ListenOpts("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after := s2.Fleet().CountersSnapshot()
	if after.Ingested != before.Ingested {
		t.Fatalf("recovered ingested = %d, want %d", after.Ingested, before.Ingested)
	}
	op, err := DialOperator(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	h, err := op.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "serving" || !h.Durable {
		t.Fatalf("restarted health = %+v", h)
	}
}

// TestDrainNotifiesSubscriber: a live tail learns the server is going
// away via the terminal shutdown frame, not a bare connection error.
func TestDrainNotifiesSubscriber(t *testing.T) {
	s, err := ListenOpts("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if err := tail.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	if _, err := tail.NextEvent(); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("NextEvent during drain: err = %v, want ErrServerDraining", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := s.State(); got != StateStopped {
		t.Fatalf("state after drain = %v, want stopped", got)
	}
}
