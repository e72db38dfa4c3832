package fleetstore

import (
	"strings"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func TestClusterMergesAcrossFabrics(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-b", 200, "v2", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-a", 300, "v1", diagnosis.TypePFCStorm, 5))

	incs := st.Incidents(Query{Node: AnyNode})
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1 (same anchor across fabrics)", len(incs))
	}
	inc := incs[0]
	if inc.Complaints != 3 || len(inc.Victims) != 2 || len(inc.Fabrics) != 2 {
		t.Fatalf("complaints=%d victims=%d fabrics=%d, want 3/2/2",
			inc.Complaints, len(inc.Victims), len(inc.Fabrics))
	}
	if inc.First != 100 || inc.Last != 300 {
		t.Fatalf("span %v..%v, want 100..300", inc.First, inc.Last)
	}
	if inc.Resolved {
		t.Fatal("incident resolved without a sweep")
	}
}

func TestClusterSplitsByTypeNodeAndWindow(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-a", 150, "v2", diagnosis.TypePFCContention, 5))              // type split
	st.Add(rec("pod-a", 200, "v3", diagnosis.TypePFCStorm, 9))                   // node split
	st.Add(rec("pod-a", 100+3*sim.Millisecond, "v4", diagnosis.TypePFCStorm, 5)) // window split
	if incs := st.Incidents(Query{Node: AnyNode}); len(incs) != 4 {
		t.Fatalf("incidents = %d, want 4", len(incs))
	}
}

func TestClusterDeadlockLoopOverlap(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	loopA := []topo.PortRef{{Node: 4, Port: 2}, {Node: 0, Port: 1}}
	loopB := []topo.PortRef{{Node: 0, Port: 1}, {Node: 6, Port: 2}}
	ra := rec("pod-a", 100, "v1", diagnosis.TypeInLoopDeadlock, 4)
	ra.Loop = loopA
	rb := rec("pod-b", 200, "v2", diagnosis.TypeInLoopDeadlock, 6)
	rb.Loop = loopB
	st.Add(ra)
	st.Add(rb)
	if incs := st.Incidents(Query{Node: AnyNode}); len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1 (loops share N0.P1)", len(incs))
	}
}

func TestClusterOutOfOrderExtendsFirst(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	st.Add(rec("pod-a", 1000, "v1", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-a", 400, "v2", diagnosis.TypePFCStorm, 5)) // late-delivered earlier trigger
	incs := st.Incidents(Query{Node: AnyNode})
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	if incs[0].First != 400 || incs[0].Last != 1000 {
		t.Fatalf("span %v..%v, want 400..1000", incs[0].First, incs[0].Last)
	}
}

func TestSweepResolvesAndRetains(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	storm := Query{Node: 5}
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	// A complaint elsewhere moves the watermark to 200: the window has
	// not passed.
	st.Add(rec("pod-b", 200, "w1", diagnosis.TypePFCContention, 9))
	if incs := st.Incidents(storm); len(incs) != 1 || incs[0].Resolved {
		t.Fatalf("storm incident after an early watermark: %+v, want one open", incs)
	}
	// One past 100+window resolves both earlier incidents on admission.
	st.Add(rec("pod-b", 100+2*sim.Millisecond, "w2", diagnosis.TypePFCContention, 9))
	c := st.CountersSnapshot()
	if c.OpenIncidents != 1 || c.Incidents != 3 {
		t.Fatalf("open=%d total=%d after the watermark passed, want 1/3", c.OpenIncidents, c.Incidents)
	}
	incs := st.Incidents(storm)
	if len(incs) != 1 || !incs[0].Resolved {
		t.Fatalf("resolved incident not queryable: %+v", incs)
	}
	// A fresh complaint after resolution opens a new incident.
	st.Add(rec("pod-a", 100+3*sim.Millisecond, "v1", diagnosis.TypePFCStorm, 5))
	if incs := st.Incidents(storm); len(incs) != 2 {
		t.Fatalf("incidents = %d after reopen, want 2", len(incs))
	}
}

// TestLateComplaintsJoinOneIncident: complaints behind the watermark —
// here a reshard copy into an owner whose watermark is 10 ms ahead —
// join or open incidents like any other, so related late complaints
// form one incident, and the next admission that moves the watermark
// resolves it.
func TestLateComplaintsJoinOneIncident(t *testing.T) {
	src := New(Config{Window: sim.Millisecond})
	for i, v := range []string{"v1", "v2", "v3"} {
		r := routedRec("pod-a", sim.Time(100*(i+1)), v, uint64(i+1))
		r.Type, r.Node = diagnosis.TypePFCStorm, 5
		src.AddUnique(r)
	}
	dst := New(Config{Window: sim.Millisecond})
	dst.Add(rec("pod-b", 10*sim.Millisecond, "w1", diagnosis.TypePFCContention, 9))

	// The cutover: seal, copy in OriginSeq order, release, adopt.
	src.FreezeFabric("pod-a")
	for _, r := range src.Records(Query{Fabric: "pod-a", Node: AnyNode}) {
		if _, outcome := dst.AddUnique(r); outcome != Admitted {
			t.Fatalf("copy of %s: outcome=%v", r.Victim, outcome)
		}
	}
	if _, err := src.PurgeFabric("pod-a"); err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptFabric("pod-a"); err != nil {
		t.Fatal(err)
	}
	storm := Query{Node: 5}
	if incs := dst.Incidents(storm); len(incs) != 1 || incs[0].Complaints != 3 || incs[0].Resolved {
		t.Fatalf("copied storm: %+v, want one open incident of 3 complaints", incs)
	}
	dst.Add(rec("pod-b", 11*sim.Millisecond, "w2", diagnosis.TypePFCContention, 9))
	if incs := dst.Incidents(storm); len(incs) != 1 || incs[0].Complaints != 3 || !incs[0].Resolved {
		t.Fatalf("copied storm after the watermark moved: %+v, want one resolved incident of 3 complaints", incs)
	}
}

func TestIncidentQueryFilters(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-b", 10*sim.Millisecond, "v2", diagnosis.TypePFCContention, 9))

	if incs := st.Incidents(Query{Fabric: "pod-b", Node: AnyNode}); len(incs) != 1 || incs[0].Node != 9 {
		t.Fatalf("fabric filter: %+v", incs)
	}
	if incs := st.Incidents(Query{Types: []diagnosis.AnomalyType{diagnosis.TypePFCStorm}, Node: AnyNode}); len(incs) != 1 || incs[0].Node != 5 {
		t.Fatalf("type filter: %+v", incs)
	}
	if incs := st.Incidents(Query{From: sim.Millisecond, Node: AnyNode}); len(incs) != 1 || incs[0].Node != 9 {
		t.Fatalf("time filter: %+v", incs)
	}
	if incs := st.Incidents(Query{Node: AnyNode, Limit: 1}); len(incs) != 1 || incs[0].Node != 5 {
		t.Fatalf("limit: %+v", incs)
	}
}

func TestPartitionAttrs(t *testing.T) {
	// Single member: everything constant (degenerate case).
	konst, vary := PartitionAttrs([]map[string]string{{"fabric": "pod-a", "victim": "v1"}})
	if len(vary) != 0 || konst["fabric"] != "pod-a" || konst["victim"] != "v1" {
		t.Fatalf("single member: constant=%v varying=%v", konst, vary)
	}
	// Mixed: constant cause, varying victim across two dimensions.
	konst, vary = PartitionAttrs([]map[string]string{
		{"cause": "flow-contention", "victim": "v1", "fabric": "pod-a"},
		{"cause": "flow-contention", "victim": "v2", "fabric": "pod-a"},
		{"cause": "flow-contention", "victim": "v3", "fabric": "pod-b"},
	})
	if konst["cause"] != "flow-contention" {
		t.Fatalf("constant = %v", konst)
	}
	if _, ok := konst["victim"]; ok {
		t.Fatal("victim leaked into constant")
	}
	if got := vary["victim"]; len(got) != 3 || got[0] != "v1" || got[2] != "v3" {
		t.Fatalf("varying victims = %v", got)
	}
	if got := vary["fabric"]; len(got) != 2 {
		t.Fatalf("varying fabrics = %v", got)
	}
	// No members: both empty.
	konst, vary = PartitionAttrs(nil)
	if len(konst) != 0 || len(vary) != 0 {
		t.Fatalf("empty input: constant=%v varying=%v", konst, vary)
	}
}

func TestIncidentSummaryAndPartition(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	r1 := rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 3)
	r1.Culprits = []string{"f1"}
	r2 := rec("pod-b", 200, "v2", diagnosis.TypePFCStorm, 3)
	r2.Culprits = []string{"f1"}
	st.Add(r1)
	st.Add(r2)
	incs := st.Incidents(Query{Node: AnyNode})
	if len(incs) != 1 {
		t.Fatalf("incidents = %d", len(incs))
	}
	s := incs[0].Summary()
	for _, want := range []string{"pfc-storm", "N3", "2 complaints", "2 victims", "2 fabrics", "1 culprit"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
	if incs[0].Constant["cause"] != "flow-contention" {
		t.Fatalf("constant = %v", incs[0].Constant)
	}
	if got := incs[0].Varying["fabric"]; len(got) != 2 {
		t.Fatalf("varying = %v", incs[0].Varying)
	}
}

func TestHubSubscribeFilterAndDrops(t *testing.T) {
	st := New(Config{Window: sim.Millisecond})
	hub := st.Hub()
	storms := st.Subscribe(Filter{Types: []diagnosis.AnomalyType{diagnosis.TypePFCStorm}, Node: AnyNode}, 16)
	defer hub.Unsubscribe(storms)
	tiny := st.Subscribe(AnyFilter(), 1)
	defer hub.Unsubscribe(tiny)

	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5))
	st.Add(rec("pod-a", 150, "v2", diagnosis.TypePFCContention, 9))
	st.Add(rec("pod-a", 200, "v3", diagnosis.TypePFCStorm, 5))

	// The filtered subscriber sees only the storm lifecycle.
	ev1 := <-storms.Events()
	if ev1.Kind != Opened || ev1.Incident.Type != diagnosis.TypePFCStorm {
		t.Fatalf("first event %v %v", ev1.Kind, ev1.Incident.Type)
	}
	ev2 := <-storms.Events()
	if ev2.Kind != Grew || ev2.Incident.Complaints != 2 {
		t.Fatalf("second event %v complaints=%d", ev2.Kind, ev2.Incident.Complaints)
	}
	select {
	case ev := <-storms.Events():
		t.Fatalf("unexpected third event: %+v", ev)
	default:
	}

	// The depth-1 subscriber lost events but never blocked ingest.
	if tiny.Dropped() != 2 {
		t.Fatalf("tiny subscriber dropped %d, want 2", tiny.Dropped())
	}
	if c := st.CountersSnapshot(); c.EventsDropped != 2 {
		t.Fatalf("store-wide events dropped = %d, want 2", c.EventsDropped)
	}
}

func TestUnsubscribeClosesStream(t *testing.T) {
	st := New(Config{})
	sub := st.Subscribe(AnyFilter(), 4)
	st.Hub().Unsubscribe(sub)
	if _, ok := <-sub.Events(); ok {
		t.Fatal("stream still open after unsubscribe")
	}
	st.Hub().Unsubscribe(sub)                                  // idempotent
	st.Add(rec("pod-a", 100, "v1", diagnosis.TypePFCStorm, 5)) // must not panic
}
