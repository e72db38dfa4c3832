package provenance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// Synthetic-report helpers. The tests build a 3-switch chain
// (sw0 -- sw1 -- sw2, one host each) and hand-craft telemetry reports so
// each Algorithm 1 rule is exercised in isolation.

func chainTopo(t *testing.T) (*topo.Topology, []topo.NodeID) {
	t.Helper()
	d, err := topo.NewChain(3, 1, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	return d.Topology, d.Switches
}

func flowT(n uint32) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: n, DstIP: 0xFF, SrcPort: 7, DstPort: 4791, Proto: 17}
}

func testCfg() Config {
	return DefaultConfig(100e9, int64(sim.Millisecond))
}

func report(sw topo.NodeID, taken sim.Time) *telemetry.Report {
	return &telemetry.Report{Switch: sw, Taken: taken, NumPorts: 4, NumEpochs: 4, FlowSlots: 64}
}

func TestPortEdgesFollowMeterShares(t *testing.T) {
	tp, sws := chainTopo(t)
	// sw0 egress port toward sw1 is paused; sw1 metered traffic from the
	// sw0 link to two egress ports, one congested, one idle.
	sw0, sw1 := sws[0], sws[1]
	// Find port indices: sw0's port to sw1 and sw1's ports.
	p01 := -1
	for pi, p := range tp.Node(sw0).Ports {
		if p.Peer == sw1 {
			p01 = pi
		}
	}
	if p01 < 0 {
		t.Fatal("no sw0->sw1 link")
	}
	_, in1 := tp.PeerOf(sw0, p01)

	r0 := report(sw0, 1000)
	r0.Epochs = []telemetry.EpochData{{
		Ports: []telemetry.PortRecord{{Port: p01, PktCount: 10, PausedCount: 8, QdepthSum: 500000, Bytes: 10000}},
	}}
	r1 := report(sw1, 1000)
	r1.Epochs = []telemetry.EpochData{{
		Ports: []telemetry.PortRecord{
			{Port: 1, PktCount: 100, PausedCount: 0, QdepthSum: 100 * 50000, Bytes: 100000},
			{Port: 2, PktCount: 5, PausedCount: 0, QdepthSum: 5, Bytes: 5000},
		},
	}}
	r1.Meter = []telemetry.MeterRecord{
		{InPort: in1, OutPort: 1, Bytes: 3000},
		{InPort: in1, OutPort: 2, Bytes: 1000},
	}

	g := Build(testCfg(), []*telemetry.Report{r0, r1}, tp)
	src := topo.PortRef{Node: sw0, Port: p01}
	// Edge to the congested port 1 must exist; port 2 (empty queue, not
	// paused) must be filtered.
	if len(g.PortEdges[src]) != 1 {
		t.Fatalf("edges from %v: %v", src, g.PortEdges[src])
	}
	dst := topo.PortRef{Node: sw1, Port: 1}
	w, ok := g.PortEdges[src][dst]
	if !ok {
		t.Fatalf("missing edge %v->%v", src, dst)
	}
	// Weight = paused(8) * share(3000/4000) * qdepth(50000) = 300000.
	if w < 299999 || w > 300001 {
		t.Fatalf("weight = %v, want 300000", w)
	}
}

func TestPortEdgePausedDestinationWithEmptyQueue(t *testing.T) {
	tp, sws := chainTopo(t)
	sw0, sw1 := sws[0], sws[1]
	p01 := 0
	for pi, p := range tp.Node(sw0).Ports {
		if p.Peer == sw1 {
			p01 = pi
		}
	}
	_, in1 := tp.PeerOf(sw0, p01)
	r0 := report(sw0, 1000)
	r0.Epochs = []telemetry.EpochData{{
		Ports: []telemetry.PortRecord{{Port: p01, PktCount: 10, PausedCount: 5, QdepthSum: 100000, Bytes: 10000}},
	}}
	r1 := report(sw1, 1000)
	// Destination port is paused by live status but has zero queue and no
	// packet counters (the out-of-loop injection case).
	r1.Status = []telemetry.PortStatus{{Port: 2, PausedUntil: 5000}}
	r1.Meter = []telemetry.MeterRecord{{InPort: in1, OutPort: 2, Bytes: 1000}}

	g := Build(testCfg(), []*telemetry.Report{r0, r1}, tp)
	src := topo.PortRef{Node: sw0, Port: p01}
	dst := topo.PortRef{Node: sw1, Port: 2}
	if w := g.PortEdges[src][dst]; w <= 0 {
		t.Fatalf("paused empty-queue destination lost its edge: %v", g.PortEdges[src])
	}
}

func TestFlowPortEdgesFromPausedCounts(t *testing.T) {
	tp, sws := chainTopo(t)
	r := report(sws[0], 1000)
	f1, f2 := flowT(1), flowT(2)
	r.Epochs = []telemetry.EpochData{{
		Flows: []telemetry.FlowRecord{
			{Tuple: f1, OutPort: 1, PktCount: 10, PausedCount: 7, QdepthSum: 1000, Bytes: 10000},
			{Tuple: f2, OutPort: 1, PktCount: 10, PausedCount: 0, QdepthSum: 1000, Bytes: 10000},
		},
	}}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	if w := g.FlowPort[f1][topo.PortRef{Node: sws[0], Port: 1}]; w != 7 {
		t.Fatalf("flow-port weight = %v, want 7", w)
	}
	if _, ok := g.FlowPort[f2]; ok {
		t.Fatal("unpaused flow has a flow-port edge")
	}
	if got := g.VictimPorts(f1); len(got) != 1 {
		t.Fatalf("VictimPorts = %v", got)
	}
}

// epoch builds an epoch with the given flow populations at port 1.
type popSpec struct {
	tuple  packet.FiveTuple
	pkts   uint32
	paused uint32
	qdepth uint64 // average bytes seen
}

func contentionEpoch(pops []popSpec) telemetry.EpochData {
	var ep telemetry.EpochData
	for _, p := range pops {
		deep := uint32(0)
		if p.pkts > p.paused {
			deep = p.pkts - p.paused
		}
		ep.Flows = append(ep.Flows, telemetry.FlowRecord{
			Tuple:       p.tuple,
			OutPort:     1,
			PktCount:    p.pkts,
			PausedCount: p.paused,
			DeepCount:   deep,
			QdepthSum:   p.qdepth * uint64(deep),
			Bytes:       uint64(p.pkts) * 1000,
		})
	}
	return ep
}

func TestContributionBurstVsVictim(t *testing.T) {
	tp, sws := chainTopo(t)
	r := report(sws[0], 1000)
	burst1, burst2, victim := flowT(1), flowT(2), flowT(3)
	// Bursts: many packets, shallow recorded depth (they built the
	// queue). Victim: few packets, deep recorded depth (arrived behind).
	r.Epochs = []telemetry.EpochData{contentionEpoch([]popSpec{
		{burst1, 200, 0, 50_000},
		{burst2, 200, 0, 52_000},
		{victim, 40, 0, 150_000},
	})}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	port := topo.PortRef{Node: sws[0], Port: 1}
	pf := g.PortFlow[port]
	if pf[burst1] <= 0 || pf[burst2] <= 0 {
		t.Fatalf("bursts not positive: %v", pf)
	}
	if pf[victim] >= 0 {
		t.Fatalf("victim not negative: %v", pf)
	}
	contributors := g.Contributors(port)
	if len(contributors) != 2 {
		t.Fatalf("contributors = %v", contributors)
	}
}

func TestContributionSymmetricSharersCancel(t *testing.T) {
	tp, sws := chainTopo(t)
	r := report(sws[0], 1000)
	var pops []popSpec
	for i := uint32(1); i <= 4; i++ {
		pops = append(pops, popSpec{flowT(i), 100, 0, 80_000})
	}
	r.Epochs = []telemetry.EpochData{contentionEpoch(pops)}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	port := topo.PortRef{Node: sws[0], Port: 1}
	for f, w := range g.PortFlow[port] {
		if w < -1e-6 || w > 1e-6 {
			t.Fatalf("symmetric sharer %v has weight %v, want ~0", f, w)
		}
	}
}

func TestContributionSumProperty(t *testing.T) {
	// Contributions are conserved: what victims lose, contributors gain.
	tp, sws := chainTopo(t)
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		var pops []popSpec
		for i := 0; i+1 < len(raw) && i < 12; i += 2 {
			pops = append(pops, popSpec{
				tuple:  flowT(uint32(i + 1)),
				pkts:   uint32(raw[i]%500) + 1,
				qdepth: uint64(raw[i+1]) * 97,
			})
		}
		r := report(sws[0], 1000)
		r.Epochs = []telemetry.EpochData{contentionEpoch(pops)}
		g := Build(testCfg(), []*telemetry.Report{r}, tp)
		sum := 0.0
		for _, w := range g.PortFlow[topo.PortRef{Node: sws[0], Port: 1}] {
			sum += w
		}
		// The in/out terms cancel across flows: the total is zero even
		// though the self term is dropped.
		return sum < 1e-6 && sum > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPausedPacketsExcludedFromContention(t *testing.T) {
	tp, sws := chainTopo(t)
	r := report(sws[0], 1000)
	f1, f2 := flowT(1), flowT(2)
	// f1's packets are all paused: it cannot be a contention party.
	r.Epochs = []telemetry.EpochData{contentionEpoch([]popSpec{
		{f1, 100, 100, 90_000},
		{f2, 100, 0, 90_000},
	})}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	port := topo.PortRef{Node: sws[0], Port: 1}
	for f, w := range g.PortFlow[port] {
		if w != 0 {
			t.Fatalf("contention attributed with only one live party: %v=%v", f, w)
		}
	}
}

func TestEpochSeparationPreventsCrossTalk(t *testing.T) {
	tp, sws := chainTopo(t)
	f1, f2 := flowT(1), flowT(2)
	r := report(sws[0], 1000)
	// Same flows in different epochs never contend.
	r.Epochs = []telemetry.EpochData{
		contentionEpoch([]popSpec{{f1, 100, 0, 90_000}}),
		contentionEpoch([]popSpec{{f2, 100, 0, 10_000}}),
	}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	for _, w := range g.PortFlow[topo.PortRef{Node: sws[0], Port: 1}] {
		if w != 0 {
			t.Fatalf("cross-epoch contention attributed: %v", g.PortFlow)
		}
	}
}

func TestBurstFlowClassification(t *testing.T) {
	tp, sws := chainTopo(t)
	cfg := testCfg()
	cfg.BurstRateFrac = 0.1 // 10 Gbps in an epoch
	r := report(sws[0], 1000)
	hot, cold := flowT(1), flowT(2)
	ep := telemetry.EpochData{Flows: []telemetry.FlowRecord{
		// 2 MB in a 1 ms epoch = 16 Gbps peak: burst.
		{Tuple: hot, OutPort: 1, PktCount: 2000, QdepthSum: 1, Bytes: 2_000_000},
		// 100 KB in the epoch: 0.8 Gbps: not a burst.
		{Tuple: cold, OutPort: 1, PktCount: 100, QdepthSum: 1, Bytes: 100_000},
	}}
	r.Epochs = []telemetry.EpochData{ep}
	g := Build(cfg, []*telemetry.Report{r}, tp)
	port := topo.PortRef{Node: sws[0], Port: 1}
	if !g.IsBurstFlow(hot, port) {
		t.Fatal("hot flow not burst-classified")
	}
	if g.IsBurstFlow(cold, port) {
		t.Fatal("cold flow burst-classified")
	}
	if g.IsBurstFlow(flowT(99), port) {
		t.Fatal("unknown flow burst-classified")
	}
}

func TestPausedPortsAndString(t *testing.T) {
	tp, sws := chainTopo(t)
	r := report(sws[0], 1000)
	r.Status = []telemetry.PortStatus{{Port: 1, PausedUntil: 5000, QdepthBytes: 777}}
	r.Epochs = []telemetry.EpochData{contentionEpoch([]popSpec{
		{flowT(1), 10, 5, 1000},
		{flowT(2), 10, 0, 1000},
	})}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	pp := g.PausedPorts()
	if len(pp) != 1 || pp[0] != (topo.PortRef{Node: sws[0], Port: 1}) {
		t.Fatalf("PausedPorts = %v", pp)
	}
	s := g.String()
	if !strings.Contains(s, "provenance graph") || !strings.Contains(s, "paused-at") {
		t.Fatalf("String output missing sections:\n%s", s)
	}
}

func TestDOTRendersGraph(t *testing.T) {
	g := NewGraph(DefaultConfig(100e9, 131072))
	p1 := topo.PortRef{Node: 1, Port: 2}
	p2 := topo.PortRef{Node: 3, Port: 0}
	f := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	g.Ports[p1] = &PortInfo{PausedNum: 2}
	g.Ports[p2] = &PortInfo{}
	g.PortEdges[p1] = map[topo.PortRef]float64{p2: 5.5}
	g.FlowPort[f] = map[topo.PortRef]float64{p1: 3}
	g.PortFlow[p2] = map[packet.FiveTuple]float64{f: -1.25}

	dot := g.DOT(nil)
	for _, want := range []string{
		"digraph provenance",
		`"port_1_2"`, `"port_3_0"`,
		"color=red",                   // paused port highlighted
		`-> "port_3_0" [label="5.5"]`, // port wait-for edge
		"style=dashed",                // flow->port edge
		"color=gray",                  // victim-signed port->flow edge
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output: two renders must be byte-identical (sorted
	// iteration everywhere).
	if g.DOT(nil) != dot {
		t.Fatal("DOT output not deterministic")
	}
}

// referenceString is Graph.String as it was written with fmt, kept as
// the differential reference for the append-based renderer and its
// per-build memo.
func referenceString(g *Graph) string {
	var b strings.Builder
	b.WriteString("provenance graph:\n")
	ports := make([]topo.PortRef, 0, len(g.Ports))
	for p := range g.Ports {
		ports = append(ports, p)
	}
	sortPortRefs(ports)
	for _, p := range ports {
		info := g.Ports[p]
		fmt.Fprintf(&b, "  port %v paused=%d qdepth=%.0fB\n", p, info.PausedNum, info.AvgQdepth())
		for _, q := range g.PortNeighbors(p) {
			fmt.Fprintf(&b, "    waits-for port %v (w=%.1f)\n", q, g.PortEdges[p][q])
		}
		flows := make([]packet.FiveTuple, 0, len(g.PortFlow[p]))
		for f := range g.PortFlow[p] {
			flows = append(flows, f)
		}
		packet.SortByString(flows)
		for _, f := range flows {
			fmt.Fprintf(&b, "    waits-for flow %v (w=%+.2f)\n", f, g.PortFlow[p][f])
		}
	}
	flows := make([]packet.FiveTuple, 0, len(g.FlowPort))
	for f := range g.FlowPort {
		flows = append(flows, f)
	}
	packet.SortByString(flows)
	for _, f := range flows {
		for _, p := range g.VictimPorts(f) {
			fmt.Fprintf(&b, "  flow %v paused-at %v (w=%.0f)\n", f, p, g.FlowPort[f][p])
		}
	}
	hosts := make([]topo.NodeID, 0, len(g.Hosts))
	for id := range g.Hosts {
		hosts = append(hosts, id)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, id := range hosts {
		r := &g.Hosts[id].Report
		fmt.Fprintf(&b, "  host %d rxbuf=%d/%dB drain=%dbps pauseTx=%d pauseRx=%d proc=%dns qps=%d\n",
			id, r.RxBufferBytes, r.RxBufferCap, r.DrainBps, r.PauseTx, r.PauseRx, r.ProcLatencyNS, r.ActiveQPs)
	}
	return b.String()
}

// awkwardWeights are the values where an append renderer can part from
// fmt: signs of zero, halves that round, non-finite values, and
// magnitudes past float64's exact integers.
var awkwardWeights = []float64{
	0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -0.5, -2.5, 0.05, 0.15, 0.125, -0.125,
	0.005, 0.015, -0.015, 1e-9, -1e-9, 1e21, -1e21, 123456789.5,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// randomGraph fills a NewGraph graph from rng: ports with counts up to
// the uint64 limit, port, flow -> port and port -> flow edges whose
// weights mix awkward values with ordinary ones, and host leaves.
func randomGraph(rng *rand.Rand) *Graph {
	g := NewGraph(testCfg())
	weight := func() float64 {
		if rng.Intn(3) == 0 {
			return awkwardWeights[rng.Intn(len(awkwardWeights))]
		}
		return (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(12)-3))
	}
	count := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64 - uint64(rng.Intn(3))
		}
		return uint64(rng.Int63n(1 << uint(rng.Intn(62)+1)))
	}
	tuple := func() packet.FiveTuple {
		return packet.FiveTuple{SrcIP: rng.Uint32(), DstIP: rng.Uint32() & 0xFF0000FF,
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)), Proto: uint8(rng.Intn(256))}
	}
	var ports []topo.PortRef
	for i := rng.Intn(12); i >= 0; i-- {
		p := topo.PortRef{Node: topo.NodeID(rng.Intn(40)), Port: rng.Intn(64)}
		ports = append(ports, p)
		g.Ports[p] = &PortInfo{Ref: p, PausedNum: count(), PktCount: count(), QdepthSum: count()}
	}
	var flows []packet.FiveTuple
	for i := rng.Intn(10); i >= 0; i-- {
		flows = append(flows, tuple())
	}
	for i := rng.Intn(30); i > 0; i-- {
		a, b := ports[rng.Intn(len(ports))], ports[rng.Intn(len(ports))]
		if g.PortEdges[a] == nil {
			g.PortEdges[a] = make(map[topo.PortRef]float64)
		}
		g.PortEdges[a][b] = weight()
	}
	for i := rng.Intn(40); i > 0; i-- {
		p, f := ports[rng.Intn(len(ports))], flows[rng.Intn(len(flows))]
		if g.PortFlow[p] == nil {
			g.PortFlow[p] = make(map[packet.FiveTuple]float64)
		}
		g.PortFlow[p][f] = weight()
		if rng.Intn(2) == 0 {
			if g.FlowPort[f] == nil {
				g.FlowPort[f] = make(map[topo.PortRef]float64)
			}
			g.FlowPort[f][p] = weight()
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		id := topo.NodeID(rng.Intn(1 << 20))
		g.Hosts[id] = &HostInfo{Host: id, Report: telemetry.HostReport{
			Host: id, RxBufferBytes: count(), RxBufferCap: count(), DrainBps: count(),
			PauseTx: count(), PauseRx: count(), ProcLatencyNS: count(), ActiveQPs: rng.Uint32(),
		}}
	}
	return g
}

// TestStringMatchesReference: the append renderer prints every seeded
// random graph byte for byte as the fmt reference does, fresh and
// through a build memo shared by forks.
func TestStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		g := randomGraph(rng)
		want := referenceString(g)
		if got := g.String(); got != want {
			t.Fatalf("graph %d renders differently:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		// The same graph as Build would return it: memo attached, hosts
		// moved onto a fork, and that fork rendered first, so the render
		// that fills the memo carries host lines the others must not.
		g.rendered = new(renderMemo)
		f := g.Fork()
		for id, h := range g.Hosts {
			f.Hosts[id] = h
		}
		g.Hosts = make(map[topo.NodeID]*HostInfo)
		for _, r := range []*Graph{f, g, f, g.Fork()} {
			if got, want := r.String(), referenceString(r); got != want {
				t.Fatalf("graph %d renders differently through the memo:\ngot:\n%s\nwant:\n%s", i, got, want)
			}
		}
	}
}

// forkTestGraph builds a small graph with paused ports, contention and
// flow -> port edges, and names two hosts of its topology.
func forkTestGraph(t *testing.T) (*Graph, *topo.Topology, []topo.NodeID) {
	t.Helper()
	tp, sws := chainTopo(t)
	r := report(sws[0], 1000)
	r.Status = []telemetry.PortStatus{{Port: 1, PausedUntil: 5000, QdepthBytes: 777}}
	r.Epochs = []telemetry.EpochData{contentionEpoch([]popSpec{
		{flowT(1), 10, 5, 1000},
		{flowT(2), 10, 0, 1000},
		{flowT(3), 4, 2, 3000},
	})}
	g := Build(testCfg(), []*telemetry.Report{r}, tp)
	hosts := tp.Hosts()
	if len(hosts) < 2 {
		t.Fatal("chain topology has fewer than two hosts")
	}
	return g, tp, hosts
}

// TestForkRenderSharesSwitchText: forks of one build share its rendered
// report-derived text, each fork's own host lines included only in its
// own render, while a hand-built graph renders fresh on every call.
// Forks of a second build are first rendered from two goroutines at
// once (run it under -race).
func TestForkRenderSharesSwitchText(t *testing.T) {
	g, tp, hosts := forkTestGraph(t)
	built := referenceString(g)
	a, b := g.Fork(), g.Fork()
	a.AddHostReport(&telemetry.HostReport{Host: hosts[0], Taken: 900, RxBufferBytes: 4096, RxBufferCap: 65536, PauseTx: 12}, tp)
	// a renders first, so its host line is in the render that fills the
	// memo; b and the build must not see it.
	for _, f := range []*Graph{a, b, a, b} {
		if got, want := f.String(), referenceString(f); got != want {
			t.Fatalf("fork renders differently from the reference:\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
	if !strings.Contains(a.String(), "  host ") || strings.Contains(b.String(), "  host ") {
		t.Fatal("a host line leaked between forks")
	}
	if got := g.String(); got != built {
		t.Fatalf("rendering forks changed the build's text:\ngot:\n%s\nwant:\n%s", got, built)
	}

	g2, _, _ := forkTestGraph(t)
	forks := []*Graph{g2.Fork(), g2.Fork()}
	forks[0].AddHostReport(&telemetry.HostReport{Host: hosts[1], Taken: 900, DrainBps: 1e9}, tp)
	got := make([]string, len(forks))
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = f.String()
		}()
	}
	wg.Wait()
	for i, f := range forks {
		if want := referenceString(f); got[i] != want {
			t.Fatalf("fork %d rendered concurrently:\ngot:\n%s\nwant:\n%s", i, got[i], want)
		}
	}

	// A forked complaint's render costs its own host lines, not the graph.
	allocs := testing.AllocsPerRun(100, func() {
		f := g.Fork()
		f.AddHostReport(&telemetry.HostReport{Host: hosts[1], Taken: 900}, tp)
		_ = f.String()
	})
	if allocs > 8 {
		t.Fatalf("Fork + AddHostReport + String = %v allocations, want <= 8", allocs)
	}

	h := NewGraph(testCfg())
	p := topo.PortRef{Node: 1, Port: 2}
	h.Ports[p] = &PortInfo{Ref: p, PausedNum: 3}
	before := h.String()
	h.Ports[p].PausedNum = 4
	if after := h.String(); after == before || after != referenceString(h) {
		t.Fatalf("hand-built graph did not show its mutation:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
