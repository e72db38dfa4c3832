package core_test

import (
	"testing"

	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Complaint storms are grouped into incidents by the fleet store's
// clusterer, the one grouper; these tests feed it hand-built results.

func mkResult(at sim.Time, victim uint16, typ diagnosis.AnomalyType, node topo.NodeID, loop []topo.PortRef) *core.Result {
	return &core.Result{
		Trigger: host.Trigger{
			Victim: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: victim, DstPort: 4791, Proto: 17},
			At:     at,
		},
		Diagnosis: &diagnosis.Report{
			Type:   typ,
			Causes: []diagnosis.RootCause{{Port: topo.PortRef{Node: node, Port: 1}}},
			Loop:   loop,
		},
	}
}

// group files the results, in order, into a store with the given join
// window and returns its incidents, ordered by first trigger time.
func group(window sim.Time, rs []*core.Result) []fleetstore.Incident {
	st := fleetstore.New(fleetstore.Config{Window: window})
	for _, r := range rs {
		st.Add(fleetstore.NewRecord("fab", r))
	}
	return st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode})
}

func TestGroupIncidentsMergesSameEvent(t *testing.T) {
	rs := []*core.Result{
		mkResult(100, 1, diagnosis.TypePFCContention, 5, nil),
		mkResult(200, 2, diagnosis.TypePFCContention, 5, nil), // same node, in window
		mkResult(300, 1, diagnosis.TypePFCContention, 5, nil), // repeat victim
	}
	incs := group(sim.Millisecond, rs)
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	inc := incs[0]
	if inc.Complaints != 3 || len(inc.Victims) != 2 {
		t.Fatalf("members=%d victims=%d, want 3/2", inc.Complaints, len(inc.Victims))
	}
	if inc.First != 100 || inc.Last != 300 {
		t.Fatalf("span %v..%v", inc.First, inc.Last)
	}
}

func TestGroupIncidentsSplitsByTypeAndAnchor(t *testing.T) {
	rs := []*core.Result{
		mkResult(100, 1, diagnosis.TypePFCContention, 5, nil),
		mkResult(150, 2, diagnosis.TypePFCStorm, 5, nil),      // same node, different type
		mkResult(200, 3, diagnosis.TypePFCContention, 9, nil), // same type, different node
	}
	if incs := group(sim.Millisecond, rs); len(incs) != 3 {
		t.Fatalf("incidents = %d, want 3 (type and anchor split)", len(incs))
	}
}

func TestGroupIncidentsWindowExpires(t *testing.T) {
	rs := []*core.Result{
		mkResult(100, 1, diagnosis.TypePFCContention, 5, nil),
		mkResult(100+2*sim.Millisecond, 2, diagnosis.TypePFCContention, 5, nil),
	}
	if incs := group(sim.Millisecond, rs); len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2 (window expired)", len(incs))
	}
}

func TestGroupIncidentsLoopOverlapMerges(t *testing.T) {
	// Deadlock complaints anchored at different loop ports still belong
	// to one incident when their loops share a port.
	loopA := []topo.PortRef{{Node: 4, Port: 2}, {Node: 0, Port: 1}}
	loopB := []topo.PortRef{{Node: 0, Port: 1}, {Node: 6, Port: 2}}
	rs := []*core.Result{
		mkResult(100, 1, diagnosis.TypeInLoopDeadlock, 4, loopA),
		mkResult(200, 2, diagnosis.TypeInLoopDeadlock, 6, loopB),
	}
	if incs := group(sim.Millisecond, rs); len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1 (loops overlap)", len(incs))
	}
	// Disjoint loops split.
	loopC := []topo.PortRef{{Node: 8, Port: 0}, {Node: 9, Port: 0}}
	rs[1] = mkResult(200, 2, diagnosis.TypeInLoopDeadlock, 6, loopC)
	if incs := group(sim.Millisecond, rs); len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2 (disjoint loops)", len(incs))
	}
}

// TestGroupIncidentsOutOfOrderTriggers: a live analyzer can complete an
// earlier-triggered diagnosis after a later one (sessions race). The
// late-delivered earlier member must extend First and leave Last alone,
// without widening the join window so far that unrelated events merge.
func TestGroupIncidentsOutOfOrderTriggers(t *testing.T) {
	// Triggers sit past t0 so the stale complaint below stays at a
	// non-negative time, which store queries require.
	const t0 = 3 * sim.Millisecond
	rs := []*core.Result{
		mkResult(t0+1000, 1, diagnosis.TypePFCContention, 5, nil),
		mkResult(t0+1400, 2, diagnosis.TypePFCContention, 5, nil),
		mkResult(t0+600, 3, diagnosis.TypePFCContention, 5, nil), // earlier trigger, delivered last
	}
	incs := group(sim.Millisecond, rs)
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1", len(incs))
	}
	if inc := incs[0]; inc.First != t0+600 || inc.Last != t0+1400 {
		t.Fatalf("span %v..%v, want t0+600..t0+1400", inc.First, inc.Last)
	}
	// An earlier trigger beyond the widened span opens its own incident
	// instead of corrupting the existing one.
	rs = append(rs, mkResult(t0+600-2*sim.Millisecond, 4, diagnosis.TypePFCContention, 5, nil))
	incs = group(sim.Millisecond, rs)
	if len(incs) != 2 {
		t.Fatalf("incidents = %d, want 2 (stale complaint split off)", len(incs))
	}
	if inc := incs[1]; inc.First != t0+600 || inc.Last != t0+1400 || inc.Complaints != 3 {
		t.Fatalf("original incident corrupted: %v..%v, %d complaints", inc.First, inc.Last, inc.Complaints)
	}
}
