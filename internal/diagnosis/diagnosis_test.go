package diagnosis

import (
	"strings"
	"testing"

	"hawkeye/internal/packet"
	"hawkeye/internal/provenance"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// graph-building helpers: hand-assembled provenance graphs shaped like
// the paper's Fig. 12 cases, decoupled from telemetry collection.

func flowT(n uint32) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: n, DstIP: 0xFF, SrcPort: 9, DstPort: 4791, Proto: 17}
}

func ref(node, port int) topo.PortRef {
	return topo.PortRef{Node: topo.NodeID(node), Port: port}
}

// testTopo builds hosts h0..h3 hanging off a 4-switch chain so host-facing
// checks work: switches are nodes 0..3, hosts 4..7 (host i on switch i).
func testTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.New(100e9, sim.Microsecond)
	var sws []topo.NodeID
	for i := 0; i < 4; i++ {
		sws = append(sws, tp.AddSwitch("sw"))
	}
	for i := 0; i+1 < 4; i++ {
		tp.Connect(sws[i], sws[i+1]) // ports 0/?? deterministic below
	}
	for i := 0; i < 4; i++ {
		h := tp.AddHost("h")
		tp.Connect(h, sws[i])
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	return tp
}

func emptyGraph() *provenance.Graph {
	return provenance.NewGraph(provenance.DefaultConfig(100e9, int64(sim.Millisecond)))
}

func addPort(g *provenance.Graph, p topo.PortRef, paused uint64) {
	g.Ports[p] = &provenance.PortInfo{Ref: p, PktCount: 10, PausedNum: paused, QdepthSum: 100000, Bytes: 10000}
}

func addPortEdge(g *provenance.Graph, a, b topo.PortRef, w float64) {
	if g.PortEdges[a] == nil {
		g.PortEdges[a] = make(map[topo.PortRef]float64)
	}
	g.PortEdges[a][b] = w
}

func addFlowPort(g *provenance.Graph, f packet.FiveTuple, p topo.PortRef, w float64) {
	if g.FlowPort[f] == nil {
		g.FlowPort[f] = make(map[topo.PortRef]float64)
	}
	g.FlowPort[f][p] = w
	if g.Flows[f] == nil {
		g.Flows[f] = make(map[topo.PortRef]*provenance.FlowInfo)
	}
	g.Flows[f][p] = &provenance.FlowInfo{Tuple: f, Port: p, PktCount: 10}
}

func addPortFlow(g *provenance.Graph, p topo.PortRef, f packet.FiveTuple, w float64) {
	if g.PortFlow[p] == nil {
		g.PortFlow[p] = make(map[packet.FiveTuple]float64)
	}
	g.PortFlow[p][f] = w
	if g.Flows[f] == nil {
		g.Flows[f] = make(map[topo.PortRef]*provenance.FlowInfo)
	}
	if g.Flows[f][p] == nil {
		g.Flows[f][p] = &provenance.FlowInfo{Tuple: f, Port: p, PktCount: 10}
	}
}

func TestSignaturePFCContention(t *testing.T) {
	// victim paused at sw0.P0 -> edge to sw1.P1 (terminal) where bursts
	// have positive weights.
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	b1, b2 := flowT(2), flowT(3)
	addPort(g, ref(0, 0), 5)
	addPort(g, ref(1, 1), 0)
	addPortEdge(g, ref(0, 0), ref(1, 1), 100)
	addFlowPort(g, victim, ref(0, 0), 5)
	addPortFlow(g, ref(1, 1), b1, 40)
	addPortFlow(g, ref(1, 1), b2, 38)
	addPortFlow(g, ref(1, 1), victim, -78)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypePFCContention {
		t.Fatalf("type = %v\n%v", rep.Type, rep)
	}
	c := rep.PrimaryCause()
	if c.Kind != CauseFlowContention || c.Port != ref(1, 1) {
		t.Fatalf("cause = %+v", c)
	}
	if len(c.Flows) != 2 {
		t.Fatalf("flows = %v", c.Flows)
	}
	if len(rep.PFCPaths) == 0 || len(rep.PFCPaths[0]) != 2 {
		t.Fatalf("paths = %v", rep.PFCPaths)
	}
}

func TestSignaturePFCStorm(t *testing.T) {
	// Terminal port is host-facing (sw1's host port) with no positive
	// port-flow weight.
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	// Host-facing port on switch 1: find it.
	hostPort := -1
	for pi := range tp.Node(1).Ports {
		if tp.IsHostFacing(1, pi) {
			hostPort = pi
		}
	}
	addPort(g, ref(0, 0), 5)
	addPort(g, ref(1, hostPort), 3)
	addPortEdge(g, ref(0, 0), ref(1, hostPort), 50)
	addFlowPort(g, victim, ref(0, 0), 5)
	addPortFlow(g, ref(1, hostPort), victim, -3)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypePFCStorm {
		t.Fatalf("type = %v\n%v", rep.Type, rep)
	}
	c := rep.PrimaryCause()
	if c.Kind != CauseHostInjection || !c.InjectorHostFacing {
		t.Fatalf("cause = %+v", c)
	}
}

// buildLoop adds a 4-port cycle over switches 0..3 port 0.
func buildLoop(g *provenance.Graph) []topo.PortRef {
	var loop []topo.PortRef
	for i := 0; i < 4; i++ {
		loop = append(loop, ref(i, 0))
	}
	for i := 0; i < 4; i++ {
		addPort(g, loop[i], 5)
		addPortEdge(g, loop[i], loop[(i+1)%4], 100)
	}
	return loop
}

func TestSignatureInLoopDeadlock(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	culprit := flowT(2)
	loop := buildLoop(g)
	addFlowPort(g, victim, loop[0], 5)
	addPortFlow(g, loop[2], culprit, 30)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypeInLoopDeadlock {
		t.Fatalf("type = %v\n%v", rep.Type, rep)
	}
	if len(rep.Loop) != 4 {
		t.Fatalf("loop = %v", rep.Loop)
	}
	c := rep.PrimaryCause()
	if c.Kind != CauseFlowContention || c.Port != loop[2] {
		t.Fatalf("cause = %+v", c)
	}
	if len(c.Flows) != 1 || c.Flows[0] != culprit {
		t.Fatalf("culprits = %v", c.Flows)
	}
}

func TestSignatureOutOfLoopDeadlockInjection(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	loop := buildLoop(g)
	hostPort := -1
	for pi := range tp.Node(1).Ports {
		if tp.IsHostFacing(1, pi) {
			hostPort = pi
		}
	}
	branch := ref(1, hostPort)
	addPort(g, branch, 2)
	addPortEdge(g, loop[0], branch, 40) // loop[0] is on switch 0; peer... edge into sw1's host port
	addFlowPort(g, victim, loop[0], 5)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypeOutLoopDeadlockInjection {
		t.Fatalf("type = %v\n%v", rep.Type, rep)
	}
	c := rep.PrimaryCause()
	if c.Kind != CauseHostInjection || c.Port != branch {
		t.Fatalf("cause = %+v", c)
	}
}

func TestSignatureOutOfLoopDeadlockContention(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	culprit := flowT(7)
	loop := buildLoop(g)
	branch := ref(1, 3)
	addPort(g, branch, 2)
	addPortEdge(g, loop[0], branch, 40)
	addFlowPort(g, victim, loop[0], 5)
	addPortFlow(g, branch, culprit, 25)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypeOutLoopDeadlockContention {
		t.Fatalf("type = %v\n%v", rep.Type, rep)
	}
	c := rep.PrimaryCause()
	if c.Kind != CauseFlowContention || c.Port != branch || len(c.Flows) != 1 {
		t.Fatalf("cause = %+v", c)
	}
}

func TestSignatureNormalContention(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	b1 := flowT(2)
	// No port-level edges, no pausing; victim path port with positive
	// contributor.
	addPort(g, ref(0, 0), 0)
	addPortFlow(g, ref(0, 0), b1, 20)
	addPortFlow(g, ref(0, 0), victim, -20)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypeNormalContention {
		t.Fatalf("type = %v\n%v", rep.Type, rep)
	}
	c := rep.PrimaryCause()
	if len(c.Flows) != 1 || c.Flows[0] != b1 {
		t.Fatalf("cause = %+v", c)
	}
}

func TestSignatureNone(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	rep := Diagnose(DefaultConfig(), g, tp, flowT(1))
	if rep.Type != TypeNone {
		t.Fatalf("type = %v on empty graph", rep.Type)
	}
}

func TestContributorThresholds(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	big, small, tiny := flowT(2), flowT(3), flowT(4)
	addPort(g, ref(0, 0), 3)
	addFlowPort(g, victim, ref(0, 0), 3)
	addPort(g, ref(1, 1), 0)
	addPortEdge(g, ref(0, 0), ref(1, 1), 10)
	addPortFlow(g, ref(1, 1), big, 100)
	addPortFlow(g, ref(1, 1), small, 5) // below ContributorFrac(0.1)*100
	addPortFlow(g, ref(1, 1), tiny, 0.5)

	cfg := DefaultConfig()
	rep := Diagnose(cfg, g, tp, victim)
	c := rep.PrimaryCause()
	if len(c.Flows) != 1 || c.Flows[0] != big {
		t.Fatalf("contributor filtering failed: %v", c.Flows)
	}
}

func TestSpreadersListed(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	spreader := flowT(5)
	addPort(g, ref(0, 0), 3)
	addPort(g, ref(1, 0), 3)
	addFlowPort(g, victim, ref(0, 0), 3)
	addFlowPort(g, spreader, ref(0, 0), 4)
	addFlowPort(g, spreader, ref(1, 0), 6)
	addPortEdge(g, ref(0, 0), ref(1, 0), 5)
	addPortFlow(g, ref(1, 0), spreader, 10)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if len(rep.Spreaders) != 1 || rep.Spreaders[0] != spreader {
		t.Fatalf("spreaders = %v", rep.Spreaders)
	}
}

func TestDeadlockFallbackRootsWhenVictimFrozen(t *testing.T) {
	// No victim flow-port evidence at all (telemetry froze): the walk
	// must start from live-paused ports and still find the loop.
	tp := testTopo(t)
	g := emptyGraph()
	loop := buildLoop(g)
	for _, p := range loop {
		g.Ports[p].PausedNow = true
	}
	rep := Diagnose(DefaultConfig(), g, tp, flowT(1))
	if len(rep.Loop) != 4 {
		t.Fatalf("fallback roots missed the loop: %v", rep)
	}
	if !rep.Type.IsDeadlock() {
		t.Fatalf("type = %v, want a deadlock", rep.Type)
	}
}

func TestReportStringAndTypeStrings(t *testing.T) {
	for ty := TypeNone; ty <= TypeOutLoopDeadlockInjection; ty++ {
		if got, ok := ParseAnomalyType(ty.String()); !ok || got != ty {
			t.Fatalf("ParseAnomalyType(%q) = %v, %v; want %d", ty.String(), got, ok, int(ty))
		}
	}
	if _, ok := ParseAnomalyType("AnomalyType(99)"); ok {
		t.Fatal("ParseAnomalyType accepted an out-of-range name")
	}
	// Out-of-range values (a kind decoded from a newer peer) print as
	// they always have.
	for _, c := range []struct{ got, want string }{
		{AnomalyType(99).String(), "AnomalyType(99)"},
		{AnomalyType(-1).String(), "AnomalyType(-1)"},
		{CauseKind(99).String(), "flow-contention"},
		{CauseKind(-1).String(), "flow-contention"},
		{Confidence(99).String(), "low"},
		{Confidence(-1).String(), "low"},
		{CauseDetail(99).String(), "unknown"},
		{CauseDetail(-1).String(), "unknown"},
	} {
		if c.got != c.want {
			t.Errorf("out-of-range String = %q, want %q", c.got, c.want)
		}
	}
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	addPort(g, ref(0, 0), 1)
	addFlowPort(g, victim, ref(0, 0), 1)
	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if s := rep.String(); !strings.Contains(s, "diagnosis for") {
		t.Fatalf("report string: %s", s)
	}
}

func TestMultipleCausesBranching(t *testing.T) {
	// The victim's pause point fans out to TWO congested terminals; both
	// must be reported as causes, ordered by walk-origin weight, and
	// both branch paths listed.
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	hot1, hot2 := flowT(2), flowT(3)
	addPort(g, ref(0, 0), 5)
	addFlowPort(g, victim, ref(0, 0), 5)
	addPort(g, ref(1, 1), 0)
	addPort(g, ref(2, 1), 0)
	addPortEdge(g, ref(0, 0), ref(1, 1), 100) // heavier branch
	addPortEdge(g, ref(0, 0), ref(2, 1), 40)
	addPortFlow(g, ref(1, 1), hot1, 50)
	addPortFlow(g, ref(2, 1), hot2, 30)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type != TypePFCContention {
		t.Fatalf("type = %v", rep.Type)
	}
	if len(rep.Causes) != 2 {
		t.Fatalf("causes = %d, want both branches", len(rep.Causes))
	}
	if rep.Causes[0].Port != ref(1, 1) {
		t.Fatalf("primary cause %v, want the heavier branch", rep.Causes[0].Port)
	}
	if len(rep.PFCPaths) != 2 {
		t.Fatalf("paths = %d, want one per branch", len(rep.PFCPaths))
	}
}

func TestSelfEdgeDoesNotLoopForever(t *testing.T) {
	// A degenerate port-level self-edge must neither hang the DFS nor be
	// reported as a deadlock cycle (a CBD needs >= 2 ports).
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	addPort(g, ref(0, 0), 5)
	addFlowPort(g, victim, ref(0, 0), 5)
	addPortEdge(g, ref(0, 0), ref(0, 0), 10)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if rep.Type.IsDeadlock() {
		t.Fatalf("self-edge classified as deadlock: %v", rep.Type)
	}
}

func TestLongerLoopDetected(t *testing.T) {
	// A 6-port cycle spanning more switches (ports alternate indices).
	tp := topo.New(100e9, sim.Microsecond)
	var sws []topo.NodeID
	for i := 0; i < 6; i++ {
		sws = append(sws, tp.AddSwitch("sw"))
	}
	for i := 0; i < 6; i++ {
		tp.Connect(sws[i], sws[(i+1)%6])
	}
	h := tp.AddHost("h")
	tp.Connect(h, sws[0])
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	g := emptyGraph()
	victim := flowT(1)
	var loop []topo.PortRef
	for i := 0; i < 6; i++ {
		loop = append(loop, ref(i, 0))
	}
	for i := 0; i < 6; i++ {
		addPort(g, loop[i], 5)
		addPortEdge(g, loop[i], loop[(i+1)%6], 50)
	}
	// Victim paused at the loop's entry, in-loop contention flows present.
	addFlowPort(g, victim, loop[0], 5)
	f := flowT(9)
	addPortFlow(g, loop[2], f, 20)

	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if len(rep.Loop) != 6 {
		t.Fatalf("loop = %v, want all 6 ports", rep.Loop)
	}
	if rep.Type != TypeInLoopDeadlock {
		t.Fatalf("type = %v", rep.Type)
	}
}

func TestVictimPausedAtRecorded(t *testing.T) {
	tp := testTopo(t)
	g := emptyGraph()
	victim := flowT(1)
	addPort(g, ref(0, 0), 2)
	addPort(g, ref(1, 0), 3)
	addFlowPort(g, victim, ref(0, 0), 2)
	addFlowPort(g, victim, ref(1, 0), 3)
	rep := Diagnose(DefaultConfig(), g, tp, victim)
	if len(rep.VictimPausedAt) != 2 {
		t.Fatalf("VictimPausedAt = %v, want both pause points", rep.VictimPausedAt)
	}
}

func TestRefineCauseDetails(t *testing.T) {
	// Topology: host h(4) on sw0; sw0 has 2 equal-cost uplinks to sw1/sw2
	// which both reach sw3 with host h2(5)... keep it simple: fat-tree-ish
	// diamond.
	tp := topo.New(100e9, sim.Microsecond)
	s0 := tp.AddSwitch("s0")
	s1 := tp.AddSwitch("s1")
	s2 := tp.AddSwitch("s2")
	s3 := tp.AddSwitch("s3")
	hSrc := tp.AddHost("src")
	hDst := tp.AddHost("dst")
	tp.Connect(hSrc, s0)
	tp.Connect(s0, s1)
	tp.Connect(s0, s2)
	tp.Connect(s1, s3)
	tp.Connect(s2, s3)
	tp.Connect(hDst, s3)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(tp)

	dstIP := tp.Node(hDst).IP
	mkFlow := func(n uint32) packet.FiveTuple {
		return packet.FiveTuple{SrcIP: n, DstIP: dstIP, SrcPort: 1, DstPort: 2, Proto: 17}
	}
	upHops := r.NextHops(s0, hDst)
	if len(upHops) < 2 {
		t.Fatalf("diamond should give ECMP at s0: %v", upHops)
	}
	f1, f2 := mkFlow(1), mkFlow(2)

	// Non-contention cause -> unknown.
	if d := Refine(RootCause{Kind: CauseHostInjection}, r, tp); d != DetailUnknown {
		t.Fatalf("injection refined to %v", d)
	}
	// Flows polarized onto one of two equal-cost uplinks -> ECMP
	// imbalance, even when some also look bursty: the alternative-path
	// evidence is unambiguous, while a freshly started elephant is
	// indistinguishable from a burst at diagnosis time.
	polarized := RootCause{Kind: CauseFlowContention,
		Port:       topo.PortRef{Node: s0, Port: upHops[0]},
		Flows:      []packet.FiveTuple{f1, f2},
		BurstFlows: []packet.FiveTuple{f1}}
	if d := Refine(polarized, r, tp); d != DetailECMPImbalance {
		t.Fatalf("polarized flows refined to %v", d)
	}
	// Host-facing congested port: destination-bound, no alternative; the
	// contributors' shape decides burst vs overload.
	var hostPort int
	for pi := range tp.Node(s3).Ports {
		if tp.IsHostFacing(s3, pi) {
			hostPort = pi
		}
	}
	incastBurst := RootCause{Kind: CauseFlowContention,
		Port:       topo.PortRef{Node: s3, Port: hostPort},
		Flows:      []packet.FiveTuple{f1, f2},
		BurstFlows: []packet.FiveTuple{f1, f2}}
	if d := Refine(incastBurst, r, tp); d != DetailMicroBurst {
		t.Fatalf("host-port bursts refined to %v", d)
	}
	incast := RootCause{Kind: CauseFlowContention,
		Port:  topo.PortRef{Node: s3, Port: hostPort},
		Flows: []packet.FiveTuple{f1, f2}}
	if d := Refine(incast, r, tp); d != DetailOverload {
		t.Fatalf("host-port elephants refined to %v", d)
	}
	// String coverage.
	for d := DetailUnknown; d <= DetailOverload; d++ {
		if d.String() == "" {
			t.Fatalf("missing String for %d", int(d))
		}
	}
}
