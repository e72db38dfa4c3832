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

// The paper validates Hawkeye on a hardware testbed (§4.1) shaped like a
// small leaf-spine, separate from the NS-3 fat-tree. This file mirrors
// that: the incast and storm cases on a 2-spine x 2-leaf Clos, proving
// the system is not specialized to the fat-tree's symmetry.

// testbedCluster builds the leaf-spine and installs Hawkeye on it.
func testbedCluster(seed uint64) (*cluster.Cluster, *core.System, *topo.LeafSpine, error) {
	ls, err := topo.NewLeafSpine(2, 2, 4, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		return nil, nil, nil, err
	}
	routing := topo.ComputeRouting(ls.Topology)
	ccfg := cluster.DefaultConfig(ls.Topology)
	ccfg.Seed = seed
	ccfg.Host.Agent.RTTFactor = 2
	cl := cluster.New(ls.Topology, routing, ccfg)
	score := core.DefaultConfig()
	score.Collect.BaseLatency = 200 * sim.Microsecond
	score.Collect.PerEpochLatency = 50 * sim.Microsecond
	sys, err := core.Install(cl, score)
	if err != nil {
		return nil, nil, nil, err
	}
	return cl, sys, ls, err
}

// buildTestbedIncast reproduces the incast-backpressure case on the
// leaf-spine: local bursts congest one host port on leaf 0; victims from
// leaf 1 share the paused uplinks without touching the congested port.
func buildTestbedIncast(cl *cluster.Cluster, ls *topo.LeafSpine, epoch sim.Time) *workload.GroundTruth {
	p := workload.DefaultParams(epoch)
	target := ls.LeafHosts[0][0]
	sibling := ls.LeafHosts[0][1]
	gt := &workload.GroundTruth{
		Scenario: "testbed-incast",
		Type:     diagnosis.TypePFCContention,
		Culprits: make(map[packet.FiveTuple]bool),
		// The incast converges at leaf 0's target port; the funnel can move
		// the recorded initial point one hop up to a spine.
		InitialSwitches: map[topo.NodeID]bool{ls.Leaves[0]: true, ls.Spines[0]: true, ls.Spines[1]: true},
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	warm := gt.AnomalyAt - 300*sim.Microsecond
	victim := cl.StartFlowRate(ls.LeafHosts[1][0], sibling, 20_000_000, warm, 20e9)
	gt.Victims[victim.Tuple] = true
	spreader := cl.StartFlowRate(ls.LeafHosts[1][1], target, 20_000_000, warm, 20e9)
	gt.Victims[spreader.Tuple] = true
	// Bursts from the REMOTE leaf (plus the local sibling): cross-spine
	// traffic is what pushes the backpressure into the fabric — leaf 0's
	// spine ingresses cross Xoff, pause the spines, and the spines pause
	// leaf 1, stalling the victims. Sized to hold the incast alive past
	// the detection-dedup window (~500 µs) so a post-maturity complaint
	// exists to score.
	for _, src := range []topo.NodeID{sibling, ls.LeafHosts[1][2], ls.LeafHosts[1][3]} {
		b := cl.StartFlow(src, target, 8*p.BurstBytes, gt.AnomalyAt)
		gt.Culprits[b.Tuple] = true
	}
	return gt
}

// buildTestbedStorm reproduces the PFC-storm case on the leaf-spine: a
// rogue host on leaf 0 injects continuous PFC while senders on leaf 1
// run well below capacity.
func buildTestbedStorm(cl *cluster.Cluster, ls *topo.LeafSpine, epoch sim.Time) *workload.GroundTruth {
	p := workload.DefaultParams(epoch)
	rogue := ls.LeafHosts[0][0]
	gt := &workload.GroundTruth{
		Scenario:        "testbed-storm",
		Type:            diagnosis.TypePFCStorm,
		Injector:        rogue,
		InitialSwitches: map[topo.NodeID]bool{ls.Leaves[0]: true},
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	cl.Hosts[rogue].InjectPFC(gt.AnomalyAt, gt.AnomalyAt+p.InjectFor, packet.MaxPauseQuanta)
	for _, src := range []topo.NodeID{ls.LeafHosts[1][0], ls.LeafHosts[1][1]} {
		f := cl.StartFlowRate(src, rogue, 40_000_000, gt.AnomalyAt-300*sim.Microsecond, 25e9)
		gt.Victims[f.Tuple] = true
	}
	return gt
}

// RunTestbed runs one testbed case ("incast" or "storm") and scores it.
func RunTestbed(scenario string, seed uint64) (metrics.TrialScore, error) {
	cl, sys, ls, err := testbedCluster(seed)
	if err != nil {
		return metrics.TrialScore{}, err
	}
	epoch := sys.Cfg.Telemetry.EpochSize()
	var gt *workload.GroundTruth
	switch scenario {
	case "incast":
		gt = buildTestbedIncast(cl, ls, epoch)
	case "storm":
		gt = buildTestbedStorm(cl, ls, epoch)
	default:
		return metrics.TrialScore{}, fmt.Errorf("experiments: unknown testbed scenario %q", scenario)
	}
	cl.Run(gt.AnomalyAt + 15*sim.Millisecond)
	results := sys.DiagnoseAll()
	return metrics.ScoreResults(metrics.DefaultScoreConfig(), results, gt, cl.Topo), nil
}

// TestbedTable runs both testbed cases across seeds on this runner's
// pool and renders the validation rows.
func (r *Runner) TestbedTable(trials int) (*metrics.Table, error) {
	scens := []string{"incast", "storm"}
	n := len(scens) * trials
	scores, err := mapOrdered(r, n, func(i int) (metrics.TrialScore, error) {
		return RunTestbed(scens[i/trials], uint64(i%trials)+1)
	})
	if err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title:   "Testbed validation: leaf-spine (2 spines x 2 leaves x 4 hosts)",
		Headers: []string{"scenario", "precision", "recall"},
	}
	for si, scen := range scens {
		var pr metrics.PR
		for t := 0; t < trials; t++ {
			pr.Add(scores[si*trials+t])
		}
		table.AddRow(scen, fmt.Sprintf("%.2f", pr.Precision()), fmt.Sprintf("%.2f", pr.Recall()))
	}
	return table, nil
}
