package experiments

import (
	"fmt"

	"hawkeye/internal/cluster"
	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/metrics"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

// ECMP hash imbalance (§2 motivates load imbalance as an NPA source):
// several elephants whose 5-tuples happen to polarize onto the SAME
// uplink overload it while the sibling uplinks idle. Nothing is
// misconfigured — the routing is healthy, the hashes are just unlucky.
// (This fabric's switches all hash identically, the textbook cause of
// polarization: a flow choosing index 0 at its edge also chooses index 0
// at the aggregation, so parity-0 cross-pod flows pile onto one core
// uplink.) PFC spreads the hot uplink's congestion to flows that chose
// other paths; Hawkeye should classify it as PFC backpressure contention
// with the polarized elephants as culprits at the imbalanced uplink.

// predictTuple returns the 5-tuple the next flow from src to dst will use.
func predictTuple(cl *cluster.Cluster, src, dst topo.NodeID) packet.FiveTuple {
	return packet.FiveTuple{
		SrcIP:   cl.Topo.Node(src).IP,
		DstIP:   cl.Topo.Node(dst).IP,
		SrcPort: cl.Hosts[src].PeekSrcPort(),
		DstPort: 4791,
		Proto:   packet.ProtoUDP,
	}
}

// selectsPorts reports whether the flow's ECMP choices match every
// (switch, egress port) pin.
func selectsPorts(cl *cluster.Cluster, ft packet.FiveTuple, pins map[topo.NodeID]int) bool {
	dst, ok := cl.Topo.HostByIP(ft.DstIP)
	if !ok {
		return false
	}
	for sw, want := range pins {
		got, ok := cl.Routing.SelectPort(sw, dst, ft.Hash())
		if !ok || got != want {
			return false
		}
	}
	return true
}

// findDst searches remote pods for a destination whose predicted tuple
// from src satisfies the pins and is not already used.
func findDst(cl *cluster.Cluster, ftree *topo.FatTree, src topo.NodeID, pins map[topo.NodeID]int, used map[topo.NodeID]bool) (topo.NodeID, error) {
	for pod := 1; pod < ftree.K; pod++ {
		for _, dst := range ftree.PodHosts[pod] {
			if used[dst] {
				continue
			}
			if selectsPorts(cl, predictTuple(cl, src, dst), pins) {
				used[dst] = true
				return dst, nil
			}
		}
	}
	return 0, fmt.Errorf("experiments: no destination polarizes %v onto the pinned ports", src)
}

// portToward finds node a's egress port whose peer is b.
func portToward(t *topo.Topology, a, b topo.NodeID) int {
	for pi, p := range t.Node(a).Ports {
		if p.Peer == b {
			return pi
		}
	}
	panic(fmt.Sprintf("experiments: no link %d->%d", a, b))
}

// RunECMPImbalance crafts and scores the hash-polarization anomaly.
func RunECMPImbalance(seed uint64) (metrics.TrialScore, error) {
	ftree, err := topo.NewFatTree(4)
	if err != nil {
		return metrics.TrialScore{}, err
	}
	routing := topo.ComputeRouting(ftree.Topology)
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = seed
	ccfg.Host.Agent.RTTFactor = 2
	// The imbalance must persist for the complaint to be diagnosable:
	// polarized elephants in production stay fast because DCQCN reacts to
	// the marks of the SHARED port only after the damage spreads; here we
	// disable marking outright (the out-of-loop-contention scenario sets
	// the same precedent).
	ccfg.Switch.EnableECN = false
	cl := cluster.New(ftree.Topology, routing, ccfg)

	score := core.DefaultConfig()
	score.Collect.BaseLatency = 200 * sim.Microsecond
	score.Collect.PerEpochLatency = 50 * sim.Microsecond
	sys, err := core.Install(cl, score)
	if err != nil {
		return metrics.TrialScore{}, err
	}

	t := ftree.Topology
	agg := ftree.Agg[0][0]
	hotUp := portToward(t, agg, ftree.Core[0]) // the uplink everything polarizes onto

	params := workload.Params{EpochSize: score.Telemetry.EpochSize()}
	gt := &workload.GroundTruth{
		Scenario:        "ecmp-imbalance",
		Type:            diagnosis.TypePFCContention,
		Culprits:        make(map[packet.FiveTuple]bool),
		InitialSwitches: map[topo.NodeID]bool{agg: true},
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       params.AnomalyStart(),
	}

	used := map[topo.NodeID]bool{}
	// Three elephants from three pod-0 hosts, each hash-selected to take
	// agg0-0 at its edge AND core0 at agg0-0 — all three on one uplink.
	elephantSrcs := []topo.NodeID{ftree.PodHosts[0][0], ftree.PodHosts[0][2], ftree.PodHosts[0][3]}
	for _, src := range elephantSrcs {
		srcEdge := ftree.Edge[0][0]
		if src == ftree.PodHosts[0][2] || src == ftree.PodHosts[0][3] {
			srcEdge = ftree.Edge[0][1]
		}
		pins := map[topo.NodeID]int{
			srcEdge: portToward(t, srcEdge, agg),
			agg:     hotUp,
		}
		dst, err := findDst(cl, ftree, src, pins, used)
		if err != nil {
			return metrics.TrialScore{}, err
		}
		e := cl.StartFlowRate(src, dst, 50_000_000, gt.AnomalyAt, 45e9)
		gt.Culprits[e.Tuple] = true
		// The polarized elephants are their own first victims: each runs
		// at 45G but drains at a ~33G share of the hot uplink, so their
		// RTTs inflate and their complaints are legitimate triggers.
		gt.Victims[e.Tuple] = true
	}

	// The victim is an INTRA-POD flow: edge0-0 -> agg0-0 -> edge0-1. It
	// shares only the edge->agg link the backpressure pauses and exits
	// downward at the aggregation, never touching the hot uplink — a pure
	// head-of-line victim of the imbalance.
	victimSrc := ftree.PodHosts[0][1] // under edge0-0
	vPins := map[topo.NodeID]int{
		ftree.Edge[0][0]: portToward(t, ftree.Edge[0][0], agg),
	}
	var vDst topo.NodeID
	found := false
	for burns := 0; burns < 16 && !found; burns++ {
		for _, cand := range []topo.NodeID{ftree.PodHosts[0][2], ftree.PodHosts[0][3]} {
			if selectsPorts(cl, predictTuple(cl, victimSrc, cand), vPins) {
				vDst, found = cand, true
				break
			}
		}
		if !found {
			// Burn one source port (changes the hash) with a negligible
			// warm-up flow.
			cl.StartFlow(victimSrc, ftree.PodHosts[0][0], 1000, 0)
		}
	}
	if !found {
		return metrics.TrialScore{}, fmt.Errorf("experiments: no victim tuple takes the paused uplink")
	}
	v := cl.StartFlowRate(victimSrc, vDst, 20_000_000, gt.AnomalyAt-300*sim.Microsecond, 20e9)
	gt.Victims[v.Tuple] = true

	cl.Run(gt.AnomalyAt + 15*sim.Millisecond)
	results := sys.DiagnoseAll()
	return metrics.ScoreResults(metrics.DefaultScoreConfig(), results, gt, cl.Topo), nil
}
