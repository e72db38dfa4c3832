package analyzd

import (
	"errors"
	"testing"
	"time"

	"hawkeye/internal/wire"
)

// shedServer builds a server whose ingest queue only drains at query
// time (manual pipeline), so a test can park the load at an exact fill
// fraction and watch each shed tier trip.
func shedServer(t *testing.T, depth int) *Server {
	t.Helper()
	s, err := ListenOpts("127.0.0.1:0", Options{
		ManualPipeline: true,
		PipeDepth:      depth,
		RetryAfterMs:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// oneShot is a client retry policy that surfaces the first throttle
// instead of backing off, so the test observes each shed directly.
func oneShot() RetryConfig {
	return RetryConfig{MaxAttempts: 1, Seed: 1, Sleep: func(time.Duration) {}}
}

// TestShedTierOrdering floods the ingest queue with a fabric client and
// checks the degradation order over all four tiered verbs: both
// subscription kinds shed at half-full, both query kinds only near
// saturation, diagnosis ingest never — and the per-tier counters
// account for every refusal.
func TestShedTierOrdering(t *testing.T) {
	const depth = 10
	s := shedServer(t, depth)
	fab, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	op, err := DialOperatorRetry(s.Addr(), oneShot())
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()

	fill := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The four tiered verbs, each as the error its caller sees.
	subscribe := func(c *Client) error { return c.Subscribe(wire.SubscribeRequest{Node: -1}) }
	subscribeRollups := func(c *Client) error { return c.SubscribeRollups(wire.RollupSubscribeRequest{}) }
	queryIncidents := func(c *Client) error { _, err := c.QueryIncidents(wire.IncidentQuery{Node: -1}); return err }
	queryRollups := func(c *Client) error { _, err := c.QueryRollups(wire.RollupQuery{}); return err }
	shed := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrThrottled) {
			t.Fatalf("%s: err = %v, want ErrThrottled", what, err)
		}
	}

	// Half-full: both subscription kinds shed, both query kinds served.
	// An admitted query drains the queue, so refill before the second.
	fill(depth / 2)
	if got := s.pipe.Load(); got < 0.5 {
		t.Fatalf("load = %v, want >= 0.5", got)
	}
	shed("subscribe at half-full", subscribe(op))
	shed("rollup subscribe at half-full", subscribeRollups(op))
	if err := queryRollups(op); err != nil {
		t.Fatalf("rollup query at half-full shed: %v", err)
	}
	fill(depth / 2)
	if err := queryIncidents(op); err != nil {
		t.Fatalf("query at half-full shed: %v", err)
	}

	// The admitted query drained the queue; the subscription tiers
	// reopen.
	if got := s.pipe.Pending(); got != 0 {
		t.Fatalf("pending after query = %d, want 0 (query drains)", got)
	}
	for what, sub := range map[string]func(*Client) error{"subscribe": subscribe, "rollup subscribe": subscribeRollups} {
		tail, err := DialOperatorRetry(s.Addr(), oneShot())
		if err != nil {
			t.Fatal(err)
		}
		defer tail.Close()
		if err := sub(tail); err != nil {
			t.Fatalf("%s at idle: %v", what, err)
		}
	}

	// Near saturation: queries shed too; diagnosis ingest still served.
	fill(depth - 1)
	shed("subscribe near saturation", subscribe(op))
	shed("rollup subscribe near saturation", subscribeRollups(op))
	shed("query near saturation", queryIncidents(op))
	shed("rollup query near saturation", queryRollups(op))
	// The last queue slot plus an overflow: the diagnosis RPC is still
	// answered both times — the queue sheds the overflow record with
	// accounting instead of refusing the verb.
	fill(2)

	st := s.Stats()
	if st.ShedSubscriptions != 2 {
		t.Fatalf("ShedSubscriptions = %d, want 2", st.ShedSubscriptions)
	}
	if st.ShedRollups != 2 {
		t.Fatalf("ShedRollups = %d, want 2", st.ShedRollups)
	}
	if st.ShedQueries != 2 {
		t.Fatalf("ShedQueries = %d, want 2", st.ShedQueries)
	}
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (one record past the full queue)", st.Dropped)
	}
	if want := depth/2*2 + depth - 1 + 2; st.Diagnoses != want {
		t.Fatalf("Diagnoses = %d, want %d: the ingest tier must never refuse", st.Diagnoses, want)
	}
}

// TestThrottleRetrySucceeds checks the client side of the contract: a
// throttled request is retried after the server's hint and succeeds
// once the load falls, without tearing the session down.
func TestThrottleRetrySucceeds(t *testing.T) {
	const depth = 10
	s := shedServer(t, depth)
	fab, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	for i := 0; i < depth-1; i++ {
		if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Between the first (shed) attempt and the retry, relieve the load.
	slept := 0
	rc := RetryConfig{MaxAttempts: 3, Seed: 1}
	rc.Sleep = func(time.Duration) {
		slept++
		s.pipe.Drain()
	}
	op, err := DialOperatorRetry(s.Addr(), rc)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if _, err := op.QueryIncidents(wire.IncidentQuery{Node: -1}); err != nil {
		t.Fatalf("query after relief: %v", err)
	}
	if slept == 0 {
		t.Fatal("client never honored the throttle hint")
	}
	if s.Stats().ShedQueries != 1 {
		t.Fatalf("ShedQueries = %d, want 1", s.Stats().ShedQueries)
	}
	if op.Redials != 0 {
		t.Fatalf("client redialed %d times on a healthy session", op.Redials)
	}
}
