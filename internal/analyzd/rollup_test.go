package analyzd

import (
	"errors"
	"testing"
	"time"

	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/wire"
)

// TestRollupsOverTheWire drives diagnoses through a fabric session and
// checks the full rollup surface: live subscription events, windowed
// queries with sliding merges and drill-down, and the health fields.
func TestRollupsOverTheWire(t *testing.T) {
	s := newServer(t)

	tail, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if err := tail.SubscribeRollups(wire.RollupSubscribeRequest{}); err != nil {
		t.Fatal(err)
	}

	fab, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}

	// The subscription sees the window open.
	ev, err := tail.NextRollup()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "opened" {
		t.Fatalf("first rollup event %q, want opened", ev.Kind)
	}

	// Query: read-your-writes (the server drains the pipeline first).
	q, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	res, err := q.QueryRollups(wire.RollupQuery{Sliding: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 1 || res.Sliding == nil {
		t.Fatalf("windows = %d, sliding = %v", len(res.Windows), res.Sliding)
	}
	w := res.Windows[0]
	if w.Records != n || w.Closed {
		t.Fatalf("window: %+v", w)
	}
	if w.ByType == nil || w.Headline == "" || w.Bytes == 0 {
		t.Fatalf("window missing rendered fields: %+v", w)
	}
	if len(w.Top["fabric"]) == 0 {
		t.Fatalf("no fabric heavy hitters: %+v", w.Top)
	}

	// Drill-down narrows the rendered levels.
	res, err = q.QueryRollups(wire.RollupQuery{Level: "switch"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows[0].Top) != 1 {
		t.Fatalf("level filter rendered %v", res.Windows[0].Top)
	}

	// Unknown levels are rejected with a decode-class error, not served.
	if _, err := q.QueryRollups(wire.RollupQuery{Level: "rack"}); err == nil {
		t.Fatal("unknown rollup level accepted")
	}

	h, err := q.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.RollupWindowsOpen != 1 || h.RollupBytes == 0 {
		t.Fatalf("health rollup fields: %+v", h)
	}

	st := s.Stats()
	if st.RollupWindowsOpen != 1 || st.RollupBytes == 0 {
		t.Fatalf("server rollup stats: %+v", st)
	}
}

// TestRollupSubscriptionShedding pins the admission tier: rollup
// subscriptions shed at the same half-full threshold as incident
// subscriptions, with their own counter, while rollup queries ride the
// query tier.
func TestRollupSubscriptionShedding(t *testing.T) {
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

	for i := 0; i < depth/2; i++ {
		if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := op.SubscribeRollups(wire.RollupSubscribeRequest{}); !errors.Is(err, ErrThrottled) {
		t.Fatalf("rollup subscribe at half-full: %v, want ErrThrottled", err)
	}
	// Queries still served at half-full — and they drain the queue.
	if _, err := op.QueryRollups(wire.RollupQuery{}); err != nil {
		t.Fatalf("rollup query at half-full: %v", err)
	}

	st := s.Stats()
	if st.ShedRollups != 1 {
		t.Fatalf("ShedRollups = %d, want 1", st.ShedRollups)
	}
	if st.ShedSubscriptions != 0 {
		t.Fatalf("ShedSubscriptions = %d, want 0 (rollups count separately)", st.ShedSubscriptions)
	}
	h, err := op.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.ShedRollups != 1 {
		t.Fatalf("health ShedRollups = %d, want 1", h.ShedRollups)
	}

	// Idle again: the tier reopens.
	if err := op.SubscribeRollups(wire.RollupSubscribeRequest{}); err != nil {
		t.Fatalf("rollup subscribe at idle: %v", err)
	}
}

// TestResubscribeSurvivesServerRestart is the reconnect contract the
// fleet CLI's tail rides: a subscribed operator loses the server, a new
// one comes up on the same address, and Resubscribe restores the stream
// with the client's capped backoff — no new client, no lost session
// state.
func TestResubscribeSurvivesServerRestart(t *testing.T) {
	a, err := ListenOpts("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.Addr()

	rc := DefaultRetryConfig()
	rc.MaxAttempts = 40
	rc.Seed = 1
	rc.Sleep = func(time.Duration) {}
	op, err := DialOperatorRetry(addr, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if err := op.SubscribeRollups(wire.RollupSubscribeRequest{}); err != nil {
		t.Fatal(err)
	}

	// The server goes away; the next read surfaces the drain/loss.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := op.NextRollup(); err == nil {
		t.Fatal("read from closed server succeeded")
	}

	// A replacement comes up on the same address (retry rides the gap).
	var b *Server
	for i := 0; i < 100; i++ {
		b, err = ListenOpts(addr, Options{})
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer b.Close()

	if err := op.Resubscribe(); err != nil {
		t.Fatalf("resubscribe after restart: %v", err)
	}

	// New activity on the new server reaches the restored subscription.
	fab, err := Dial(addr, smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 5000); err != nil {
		t.Fatal(err)
	}
	ev, err := op.NextRollup()
	if err != nil {
		t.Fatalf("next rollup after resubscribe: %v", err)
	}
	if ev.Kind != "opened" {
		t.Fatalf("restored stream first event %q, want opened", ev.Kind)
	}

	// An incident subscription restores the same way.
	if err := op.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		t.Fatal(err)
	}
	// (Resubscribe now tracks the most recent subscription frame.)
	if err := op.Resubscribe(); err != nil {
		t.Fatalf("resubscribe incident stream: %v", err)
	}
}

// TestResubscribeWithoutSubscription: nothing to restore is an explicit
// error, not a silent no-op.
func TestResubscribeWithoutSubscription(t *testing.T) {
	s := newServer(t)
	op, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if err := op.Resubscribe(); !errors.Is(err, ErrNoSubscription) {
		t.Fatalf("err = %v, want ErrNoSubscription", err)
	}
}

// TestRollupObserverSurvivesRestart: with a durable store, WAL replay
// rebuilds the rollup windows on the new server — the summarizer rides
// the same record feed the store replays.
func TestRollupObserverSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := ListenOpts("127.0.0.1:0", Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := Dial(a.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := fab.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, int64(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the pipeline into the store before the restart.
	op, err := DialOperator(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := op.QueryRollups(wire.RollupQuery{}); err != nil {
		t.Fatal(err)
	}
	op.Close()
	fab.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := ListenOpts("127.0.0.1:0", Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	res := b.Rollups().Query(rollup.QueryOpts{})
	var replayed uint64
	for _, w := range res.Panes {
		replayed += w.Records
	}
	if replayed != 5 {
		t.Fatalf("replayed rollup records = %d, want 5", replayed)
	}
	if res.Panes[0].Start > sim.Time(2000) {
		t.Fatalf("replayed pane start %v, want <= trigger time", res.Panes[0].Start)
	}
}
