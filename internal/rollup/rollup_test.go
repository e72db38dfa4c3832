package rollup

import (
	"fmt"
	"reflect"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Pane = sim.Millisecond
	cfg.UpdateEvery = 10
	return cfg
}

func rec(at sim.Time, fabric, pod string, node, port int) fleetstore.Record {
	return fleetstore.Record{
		At:         at,
		Fabric:     fabric,
		Pod:        pod,
		Node:       topo.NodeID(node),
		Port:       port,
		Type:       diagnosis.TypePFCStorm,
		Cause:      diagnosis.CauseHostInjection,
		Confidence: diagnosis.ConfHigh,
		Score:      0.9,
		StallNS:    int64(at / 10),
	}
}

// genStream produces a deterministic pseudo-random record sequence: n
// records spread over several panes, fabrics, pods, nodes and ports.
func genStream(n int, seed uint64) []fleetstore.Record {
	r := lcg(seed)
	recs := make([]fleetstore.Record, 0, n)
	for i := 0; i < n; i++ {
		at := sim.Time(r.next() % uint64(6*sim.Millisecond))
		rc := rec(at,
			fmt.Sprintf("fab%d", r.next()%3),
			fmt.Sprintf("pod%d", r.next()%4),
			int(r.next()%40), int(r.next()%8))
		if i%5 == 0 {
			rc.Type = diagnosis.TypePFCContention
			rc.Cause = diagnosis.CauseFlowContention
			rc.Confidence = diagnosis.ConfLow
			rc.Score = 0.3
		}
		recs = append(recs, rc)
	}
	return recs
}

// TestWindowLifecycle walks one pane from open to closed: records fold
// in, the watermark closes it, late arrivals are counted and dropped.
func TestWindowLifecycle(t *testing.T) {
	s := New(testConfig())
	sub := s.Subscribe(false, 16)

	s.ObserveRecord(&fleetstore.Record{At: 500_000, Fabric: "fabA", Node: 3, Port: 1,
		Type: diagnosis.TypePFCStorm, Cause: diagnosis.CauseHostInjection, Confidence: diagnosis.ConfHigh})
	ev := <-sub.Events()
	if ev.Kind != PaneOpened {
		t.Fatalf("first event %v, want PaneOpened", ev.Kind)
	}
	st := s.Stats()
	if st.WindowsOpen != 1 || st.Records != 1 {
		t.Fatalf("stats after first record: %+v", st)
	}

	// Watermark inside the pane: nothing closes. Past its end: final
	// summary published, pane retired to the ring.
	s.AdvanceWatermark(900_000)
	if st := s.Stats(); st.WindowsClosed != 0 {
		t.Fatalf("pane closed early: %+v", st)
	}
	s.AdvanceWatermark(sim.Time(sim.Millisecond) + 1)
	ev = <-sub.Events()
	if ev.Kind != PaneClosed || !ev.Summary.Closed {
		t.Fatalf("close event: %+v", ev)
	}
	if ev.Summary.Records != 1 || ev.Summary.ByType["pfc-storm"] != 1 {
		t.Fatalf("closed summary: %+v", ev.Summary)
	}
	if got := ev.Summary.TopLevels["switch"]; len(got) != 1 || got[0].Key != "fabA/-/N3" {
		t.Fatalf("switch hitters: %+v", got)
	}
	st = s.Stats()
	if st.WindowsOpen != 0 || st.WindowsClosed != 1 {
		t.Fatalf("stats after close: %+v", st)
	}

	// A record older than the closed boundary is late: counted, not folded.
	s.ObserveRecord(&fleetstore.Record{At: 100, Fabric: "fabA"})
	st = s.Stats()
	if st.Late != 1 || st.Records != 1 {
		t.Fatalf("late record accounting: %+v", st)
	}
	s.Hub().Unsubscribe(sub)
}

// TestMaxOpenPanesEarlyCloses: skewed arrival cannot hold more than
// MaxOpenPanes windows open — the oldest closes early instead.
func TestMaxOpenPanesEarlyCloses(t *testing.T) {
	cfg := testConfig()
	cfg.MaxOpenPanes = 3
	s := New(cfg)
	for i := 0; i < 10; i++ {
		r := rec(sim.Time(i)*sim.Millisecond+1, "fab", "pod1", i, 0)
		s.ObserveRecord(&r)
	}
	st := s.Stats()
	if st.WindowsOpen > 3 {
		t.Fatalf("open windows = %d, want <= 3", st.WindowsOpen)
	}
	if st.WindowsClosed != 7 {
		t.Fatalf("closed windows = %d, want 7", st.WindowsClosed)
	}
}

// TestDeterministicAcrossSubscriberTiming pins the issue's determinism
// requirement: identical record sequences produce byte-identical query
// output whether or not a subscriber is attached, and however lazily it
// drains its buffer.
func TestDeterministicAcrossSubscriberTiming(t *testing.T) {
	recs := genStream(5000, 1234)

	run := func(withSub bool) Result {
		s := New(testConfig())
		var sub *fleetstore.Sub[Event]
		if withSub {
			sub = s.Subscribe(false, 1) // tiny buffer: most events drop
		}
		for i := range recs {
			r := recs[i]
			s.ObserveRecord(&r)
			if withSub && i%97 == 0 {
				// Drain sporadically, racing nothing: timing must not matter.
				for len(sub.Events()) > 0 {
					<-sub.Events()
				}
			}
		}
		s.AdvanceWatermark(4 * sim.Millisecond)
		return s.Query(QueryOpts{Sliding: 8})
	}

	a, b := run(true), run(false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("subscriber timing changed rollup output:\nwith sub: %+v\nwithout:  %+v", a, b)
	}
	if len(a.Panes) == 0 || a.Sliding == nil || a.Sliding.Records != 5000 {
		t.Fatalf("query shape: %d panes, sliding %+v", len(a.Panes), a.Sliding)
	}
}

// TestMemoryBoundedUnder100kRecords is the acceptance-criterion test: a
// hostile stream of 100k records with high key cardinality, folded into
// a summarizer with a small byte cap, never grows a pane past the cap
// and visibly pays for it in eviction counters.
func TestMemoryBoundedUnder100kRecords(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPaneBytes = 6 << 10
	s := New(cfg)
	eff := s.Config()
	if worst := worstPaneBytes(eff.TopK, eff.MaxBuckets); worst > eff.MaxPaneBytes {
		t.Fatalf("effective config worst-case %d exceeds cap %d", worst, eff.MaxPaneBytes)
	}

	r := lcg(77)
	const n = 100_000
	for i := 0; i < n; i++ {
		at := sim.Time(i) * sim.Time(40*int64(sim.Millisecond)/n) // sweep 40ms: ~40 panes
		rc := rec(at,
			fmt.Sprintf("fabric-%d", r.next()%50),
			fmt.Sprintf("pod%d", r.next()%30),
			int(r.next()%5000), int(r.next()%64))
		rc.StallNS = int64(r.next() % 1_000_000)
		rc.Score = float64(r.next()%1000) / 1000
		s.ObserveRecord(&rc)

		if i%10_000 == 0 {
			for _, sum := range s.Query(QueryOpts{}).Panes {
				if sum.Bytes > eff.MaxPaneBytes {
					t.Fatalf("record %d: pane %d bytes exceeds cap %d", i, sum.Bytes, eff.MaxPaneBytes)
				}
			}
		}
	}

	st := s.Stats()
	if st.Records != n {
		t.Fatalf("records = %d, want %d", st.Records, n)
	}
	if st.Evictions == 0 {
		t.Fatal("high-cardinality stream caused no sketch evictions: cap not exercised")
	}
	// Total footprint is bounded by the retained-pane budget.
	if max := (eff.MaxPanes + eff.MaxOpenPanes) * eff.MaxPaneBytes; st.BytesInUse > max {
		t.Fatalf("bytes in use %d exceeds retained-pane budget %d", st.BytesInUse, max)
	}
	for _, sum := range s.Query(QueryOpts{}).Panes {
		if sum.Bytes > eff.MaxPaneBytes {
			t.Fatalf("final pane bytes %d exceeds cap %d", sum.Bytes, eff.MaxPaneBytes)
		}
	}
}

// TestConfigShrinksToFitByteCap: a cap smaller than the default sketch
// sizes shrinks bucket and top-K capacities until the worst case fits.
func TestConfigShrinksToFitByteCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPaneBytes = 6 << 10
	eff := New(cfg).Config()
	if eff.MaxBuckets >= DefaultConfig().MaxBuckets && eff.TopK >= DefaultConfig().TopK {
		t.Fatalf("capacities not shrunk: %+v", eff)
	}
	if worst := worstPaneBytes(eff.TopK, eff.MaxBuckets); worst > cfg.MaxPaneBytes {
		t.Fatalf("worst case %d still exceeds cap %d", worst, cfg.MaxPaneBytes)
	}

	// A cap below the floor-capacity pane is raised to the floor, so the
	// effective config never promises a bound the sketches cannot keep.
	cfg.MaxPaneBytes = 1
	eff = New(cfg).Config()
	if worst := worstPaneBytes(eff.TopK, eff.MaxBuckets); eff.MaxPaneBytes != worst {
		t.Fatalf("sub-floor cap: MaxPaneBytes = %d, want floor %d", eff.MaxPaneBytes, worst)
	}
}

// TestQueryDrillDown: level and prefix filters narrow the rendered
// hitters without touching other levels, on panes and sliding merges.
func TestQueryDrillDown(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 20; i++ {
		r := rec(100, "fabA", "pod1", 5, i%2)
		s.ObserveRecord(&r)
	}
	for i := 0; i < 10; i++ {
		r := rec(200, "fabB", "pod2", 9, 0)
		s.ObserveRecord(&r)
	}

	res := s.Query(QueryOpts{Level: "switch", Prefix: "fabA", Sliding: 4})
	if len(res.Panes) != 1 {
		t.Fatalf("panes = %d, want 1", len(res.Panes))
	}
	sum := res.Panes[0]
	if len(sum.TopLevels) != 1 {
		t.Fatalf("levels rendered = %v, want switch only", sum.TopLevels)
	}
	hs := sum.TopLevels["switch"]
	if len(hs) != 1 || hs[0].Key != "fabA/pod1/N5" || hs[0].Count != 20 {
		t.Fatalf("drill-down hitters: %+v", hs)
	}
	if res.Sliding == nil || len(res.Sliding.TopLevels["switch"]) != 1 {
		t.Fatalf("sliding drill-down: %+v", res.Sliding)
	}

	// Unfiltered query still sees both fabrics at every level.
	full := s.Query(QueryOpts{})
	if got := full.Panes[0].TopLevels["fabric"]; len(got) != 2 {
		t.Fatalf("unfiltered fabric hitters: %+v", got)
	}
	if got := full.Panes[0].TopLevels["port"]; len(got) != 3 {
		t.Fatalf("unfiltered port hitters: %+v", got)
	}
}

// TestClosedOnlySubscriber: a closed-only subscription never sees
// opened/updated chatter, only final summaries.
func TestClosedOnlySubscriber(t *testing.T) {
	cfg := testConfig()
	cfg.UpdateEvery = 1
	s := New(cfg)
	sub := s.Subscribe(true, 64)
	for i := 0; i < 30; i++ {
		r := rec(sim.Time(i)*100_000, "fab", "pod1", i, 0)
		s.ObserveRecord(&r)
	}
	s.Close()
	for ev := range sub.Events() {
		if ev.Kind != PaneClosed {
			t.Fatalf("closed-only subscriber got %v", ev.Kind)
		}
	}
}

// TestCloseFinalizesOpenPanes: Close retires every open pane so final
// counters and subscribers cover the tail of the stream.
func TestCloseFinalizesOpenPanes(t *testing.T) {
	s := New(testConfig())
	for i := 0; i < 3; i++ {
		r := rec(sim.Time(i)*sim.Millisecond+5, "fab", "pod1", i, 0)
		s.ObserveRecord(&r)
	}
	s.Close()
	st := s.Stats()
	if st.WindowsOpen != 0 || st.WindowsClosed != 3 {
		t.Fatalf("stats after Close: %+v", st)
	}
	// Idempotent, and late observers are no-ops after shutdown.
	s.Close()
	r := rec(10*sim.Millisecond, "fab", "pod1", 0, 0)
	s.ObserveRecord(&r)
	if st := s.Stats(); st.Records != 3 {
		t.Fatalf("records folded after Close: %+v", st)
	}
}

// TestRingRetention: only MaxPanes closed panes are kept; evictions of
// retired panes stay visible in Stats.
func TestRingRetention(t *testing.T) {
	cfg := testConfig()
	cfg.MaxPanes = 4
	cfg.MaxOpenPanes = 2
	s := New(cfg)
	for i := 0; i < 20; i++ {
		r := rec(sim.Time(i)*sim.Millisecond+5, "fab", "pod1", i, 0)
		s.ObserveRecord(&r)
	}
	s.AdvanceWatermark(21 * sim.Millisecond)
	res := s.Query(QueryOpts{})
	if len(res.Panes) != 4 {
		t.Fatalf("retained panes = %d, want 4", len(res.Panes))
	}
	// Newest-last ordering.
	for i := 1; i < len(res.Panes); i++ {
		if res.Panes[i-1].Start >= res.Panes[i].Start {
			t.Fatalf("panes out of order: %v then %v", res.Panes[i-1].Start, res.Panes[i].Start)
		}
	}
	if st := s.Stats(); st.WindowsClosed != 20 {
		t.Fatalf("windows closed = %d, want 20", st.WindowsClosed)
	}
}
