// Anomaly scenario crafting (§4.1): each builder installs one anomaly on
// a fat-tree cluster and returns machine-checkable ground truth. The
// constructions mirror the paper's: synchronized micro-bursts through a
// shared port for PFC backpressure, continuous host PFC injection for
// storms, and routing misconfigurations forming a cyclic buffer
// dependency (CBD) across two pods' aggregation and core switches for
// the deadlock cases.
package workload

import (
	"fmt"

	"hawkeye/internal/cluster"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// GroundTruth is the oracle the scorer compares diagnoses against.
type GroundTruth struct {
	Scenario string
	Type     diagnosis.AnomalyType
	// AltTypes are additionally accepted diagnosis types: graceful
	// degradations that still carry the correct root cause (the same
	// culprit/initial-point checks apply).
	AltTypes []diagnosis.AnomalyType
	// Culprits are the root-cause flows (contention cases).
	Culprits map[packet.FiveTuple]bool
	// Injector is the PFC-injecting host (injection cases).
	Injector topo.NodeID
	// HostCause is the refined host-side pathology behind the PFC
	// (host scenarios). CauseFlowContention — the zero value — means
	// the anomaly is not host-caused.
	HostCause diagnosis.CauseKind
	// InitialSwitches are the switches that may legitimately host the
	// initial congestion point (funnel effects can move it one hop).
	InitialSwitches map[topo.NodeID]bool
	// CausalSwitches is the full causally-relevant set: victim paths plus
	// the PFC spreading path (Fig. 11's coverage denominator).
	CausalSwitches map[topo.NodeID]bool
	// Victims are the flows entitled to trigger this diagnosis.
	Victims map[packet.FiveTuple]bool
	// AnomalyAt is when the anomaly begins.
	AnomalyAt sim.Time
	// ScoreAfter is when the anomaly has matured into its final form;
	// diagnoses triggered earlier are scored against the transitional
	// state. Deadlocks begin life as ordinary backpressure: the cycle
	// needs a few hundred microseconds to close (§2.1: "short-duration
	// flow contention then leads to a persistent deadlock").
	ScoreAfter sim.Time
}

// Params tunes scenario construction.
type Params struct {
	// EpochSize aligns burst starts to telemetry epoch boundaries
	// (Fig. 7 sweeps this; alignment is part of the epoch-size effect).
	EpochSize sim.Time
}

// Scenario constants shared across the evaluation.
const (
	// anomalyEpoch is the epoch index in which the anomaly fires.
	anomalyEpoch int = 2
	// BurstBytes is the size of one micro-burst flow.
	BurstBytes int64 = 512_000
	// burstRounds repeats the synchronized bursts to keep backpressure
	// alive long enough for detection.
	burstRounds int = 2
	// InjectFor is the PFC injection duration.
	InjectFor sim.Time = 20 * sim.Millisecond
	// warmUp is how long before the anomaly the victim flows start, so
	// their RTT baselines exist when the anomaly hits.
	warmUp sim.Time = 300 * sim.Microsecond
)

// AnomalyStart aligns the anomaly to just past an epoch boundary — the
// first boundary that leaves room for the warm-up. Alignment matters:
// an anomaly starting mid-epoch shares its telemetry epoch with
// pre-anomaly traffic, diluting the recorded queue depths (the epoch-size
// sensitivity Fig. 7 studies).
func (p Params) AnomalyStart() sim.Time {
	epoch := sim.Time(anomalyEpoch)
	for epoch*p.EpochSize < warmUp {
		epoch++
	}
	return epoch*p.EpochSize + sim.Microsecond
}

// warmStart is when victim flows begin: early enough to establish RTT
// baselines, late enough to still be running when the anomaly fires.
func (p Params) warmStart() sim.Time {
	at := p.AnomalyStart()
	if at <= warmUp {
		return 0
	}
	return at - warmUp
}

// Scenario names.
const (
	NameIncast        = "incast-backpressure"
	NameStorm         = "pfc-storm"
	NameInLoop        = "in-loop-deadlock"
	NameOutLoopInject = "out-of-loop-deadlock-injection"
	NameOutLoopBurst  = "out-of-loop-deadlock-contention"
	NameNormal        = "normal-contention"
)

// Builder installs a scenario on a fat-tree cluster.
type Builder func(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth

// ByName resolves a scenario builder.
func ByName(name string) (Builder, error) {
	switch name {
	case NameIncast:
		return BuildIncast, nil
	case NameStorm:
		return BuildStorm, nil
	case NameInLoop:
		return BuildInLoopDeadlock, nil
	case NameOutLoopInject:
		return BuildOutLoopInjection, nil
	case NameOutLoopBurst:
		return BuildOutLoopContention, nil
	case NameNormal:
		return BuildNormalContention, nil
	case NameSlowReceiver:
		return BuildSlowReceiver, nil
	case NameCacheThrash:
		return BuildCacheThrash, nil
	case NameHostPauseStorm:
		return BuildHostPauseStorm, nil
	}
	return nil, fmt.Errorf("workload: unknown scenario %q", name)
}

// AllScenarios lists the evaluation scenarios in paper order.
func AllScenarios() []string {
	return []string{NameIncast, NameStorm, NameInLoop, NameOutLoopInject, NameOutLoopBurst, NameNormal,
		NameSlowReceiver, NameCacheThrash, NameHostPauseStorm}
}

// HostScenarios lists the host-pathology scenarios.
func HostScenarios() []string {
	return []string{NameSlowReceiver, NameCacheThrash, NameHostPauseStorm}
}

// MixedScenarios interleaves network- and host-caused anomalies: the
// workload of the host-vs-network attribution evaluation.
func MixedScenarios() []string {
	return []string{NameIncast, NameSlowReceiver, NameStorm, NameCacheThrash, NameNormal, NameHostPauseStorm}
}

// pathSwitches collects the switches on a flow's path.
func pathSwitches(cl *cluster.Cluster, f *host.Flow, dst topo.NodeID, into map[topo.NodeID]bool) {
	src, _ := cl.Topo.HostByIP(f.Tuple.SrcIP)
	refs, err := cl.Routing.PortPath(src, dst, f.Tuple.Hash())
	if err != nil {
		return
	}
	for _, r := range refs {
		if cl.Topo.Node(r.Node).Kind == topo.KindSwitch {
			into[r.Node] = true
		}
	}
}

// BuildIncast reproduces Fig. 1(a): synchronized remote micro-bursts
// incast into one host's edge port; victims are flows that share paused
// links without ever traversing the congested port.
func BuildIncast(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	target := ft.PodHosts[2][0]  // burst destination, under edge2-0
	sibling := ft.PodHosts[2][1] // same edge switch, different port

	gt := &GroundTruth{
		Scenario:        NameIncast,
		Type:            diagnosis.TypePFCContention,
		Culprits:        make(map[packet.FiveTuple]bool),
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[2][0]: true, ft.Agg[2][0]: true, ft.Agg[2][1]: true},
		CausalSwitches:  make(map[topo.NodeID]bool),
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}

	// Victim: pod0 -> sibling; spreader: pod0 -> target. Both rate-capped
	// well below line rate so that, before the bursts, NOTHING in the
	// fabric is congested: clean RTT baselines, and any later degradation
	// is attributable to the anomaly alone. They start before the anomaly
	// so they are mid-flight when it hits.
	at := p.warmStart()
	victim := cl.StartFlowRate(ft.PodHosts[0][0], sibling, 20_000_000, at, 20e9)
	gt.Victims[victim.Tuple] = true
	pathSwitches(cl, victim, sibling, gt.CausalSwitches)
	spreader := cl.StartFlowRate(ft.PodHosts[0][1], target, 20_000_000, at, 20e9)
	gt.Victims[spreader.Tuple] = true
	pathSwitches(cl, spreader, target, gt.CausalSwitches)

	// One synchronized round of line-rate micro-bursts into the target
	// (the paper's A1..A4): the pod's other edge switch plus one host
	// from each remote pod, so the incast converges through both of the
	// target edge's uplinks.
	for _, src := range []topo.NodeID{sibling, ft.PodHosts[2][2], ft.PodHosts[2][3]} {
		b := cl.StartFlow(src, target, 2*BurstBytes, gt.AnomalyAt)
		gt.Culprits[b.Tuple] = true
		pathSwitches(cl, b, target, gt.CausalSwitches)
	}
	return gt
}

// BuildStorm reproduces Fig. 1(b): a malfunctioning host continuously
// injects PFC; traffic toward it (and HOL victims behind it) stall with
// no flow contention at the initial point.
func BuildStorm(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	rogue := ft.PodHosts[1][0]
	gt := &GroundTruth{
		Scenario:        NameStorm,
		Type:            diagnosis.TypePFCStorm,
		Injector:        rogue,
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[1][0]: true},
		CausalSwitches:  make(map[topo.NodeID]bool),
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	cl.Hosts[rogue].InjectPFC(gt.AnomalyAt, gt.AnomalyAt+InjectFor, packet.MaxPauseQuanta)

	// Traffic toward the rogue from two pods, rate-capped so their sum
	// stays below the rogue's link: without the injection there is NO
	// congestion anywhere — the stall is pure host PFC (Fig. 1b).
	for _, src := range []topo.NodeID{ft.PodHosts[0][0], ft.PodHosts[0][1], ft.PodHosts[3][1]} {
		f := cl.StartFlowRate(src, rogue, 40_000_000, p.warmStart(), 25e9)
		gt.Victims[f.Tuple] = true
		pathSwitches(cl, f, rogue, gt.CausalSwitches)
	}
	return gt
}

// cycleFlowBytes keeps the CBD flows alive for the whole trace (they
// stall once the loop closes, so the packet count stays bounded).
const cycleFlowBytes = 50_000_000

// cbd wires the cyclic buffer dependency used by both deadlock scenarios:
// four flows chained around [agg0-0, core0, agg1-0, core1] via ECMP
// pinning plus two up-after-down routing misconfigurations (§2.1: CBD
// "can be caused by problematic routing").
type cbd struct {
	cycle     [4]topo.NodeID
	flows     []*host.Flow
	flowDsts  []topo.NodeID
	cyclePort map[topo.NodeID]int // egress port toward the next cycle node
}

// portToward finds node a's port whose peer is b.
func portToward(t *topo.Topology, a, b topo.NodeID) int {
	for pi, p := range t.Node(a).Ports {
		if p.Peer == b {
			return pi
		}
	}
	panic(fmt.Sprintf("workload: no link %d->%d", a, b))
}

// buildCBD pins routes and starts the four cycle flows at the given rate
// cap. Flow i enters the cycle at node i and exits at node (i+2).
func buildCBD(cl *cluster.Cluster, ft *topo.FatTree, rate float64, flowBytes int64, gt *GroundTruth) *cbd {
	t := cl.Topo
	c := &cbd{
		cycle:     [4]topo.NodeID{ft.Agg[0][0], ft.Core[0], ft.Agg[1][0], ft.Core[1]},
		cyclePort: make(map[topo.NodeID]int),
	}
	for i := 0; i < 4; i++ {
		c.cyclePort[c.cycle[i]] = portToward(t, c.cycle[i], c.cycle[(i+1)%4])
	}

	// srcs/dsts chosen so entries and exits are unambiguous:
	//   F0: pod0 host -> pod1 host  (agg0-0 -> core0 -> agg1-0, normal)
	//   F1: pod2 host -> pod3 host  (core0 -> agg1-0 -> core1, misconfig)
	//   F2: pod1 host -> pod0 host  (agg1-0 -> core1 -> agg0-0, normal)
	//   F3: pod3 host -> pod2 host  (core1 -> agg0-0 -> core0, misconfig)
	srcs := []topo.NodeID{ft.PodHosts[0][0], ft.PodHosts[2][0], ft.PodHosts[1][2], ft.PodHosts[3][0]}
	dsts := []topo.NodeID{ft.PodHosts[1][0], ft.PodHosts[3][2], ft.PodHosts[0][2], ft.PodHosts[2][2]}
	c.flowDsts = dsts

	pin := func(sw topo.NodeID, dst topo.NodeID, port int) {
		cl.Routing.Override(sw, dst, []int{port})
	}
	// F0: pin src edge up to agg0-0, agg0-0 up to core0.
	pin(ft.Edge[0][0], dsts[0], portToward(t, ft.Edge[0][0], ft.Agg[0][0]))
	pin(ft.Agg[0][0], dsts[0], c.cyclePort[ft.Agg[0][0]])
	// F1: pin src edge up to agg2-0, agg2-0 up to core0; MISCONFIG at
	// core0 (down into pod1 instead of pod3) and pin agg1-0 back up to
	// core1.
	pin(ft.Edge[2][0], dsts[1], portToward(t, ft.Edge[2][0], ft.Agg[2][0]))
	pin(ft.Agg[2][0], dsts[1], portToward(t, ft.Agg[2][0], ft.Core[0]))
	pin(ft.Core[0], dsts[1], c.cyclePort[ft.Core[0]])     // misconfig
	pin(ft.Agg[1][0], dsts[1], c.cyclePort[ft.Agg[1][0]]) // up again
	// F2: pin src edge up to agg1-0, agg1-0 up to core1.
	pin(ft.Edge[1][1], dsts[2], portToward(t, ft.Edge[1][1], ft.Agg[1][0]))
	pin(ft.Agg[1][0], dsts[2], c.cyclePort[ft.Agg[1][0]])
	// F3: pin src edge up to agg3-0, agg3-0 up to core1; MISCONFIG at
	// core1 (down into pod0 instead of pod2) and pin agg0-0 back up to
	// core0.
	pin(ft.Edge[3][0], dsts[3], portToward(t, ft.Edge[3][0], ft.Agg[3][0]))
	pin(ft.Agg[3][0], dsts[3], portToward(t, ft.Agg[3][0], ft.Core[1]))
	pin(ft.Core[1], dsts[3], c.cyclePort[ft.Core[1]])     // misconfig
	pin(ft.Agg[0][0], dsts[3], c.cyclePort[ft.Agg[0][0]]) // up again

	for i := range srcs {
		f := cl.StartFlowRate(srcs[i], dsts[i], flowBytes, 0, rate)
		c.flows = append(c.flows, f)
		gt.Victims[f.Tuple] = true
		src := srcs[i]
		// Record the causal switches along the pinned path.
		refs, err := cl.Routing.PortPath(src, dsts[i], f.Tuple.Hash())
		if err == nil {
			for _, r := range refs {
				if t.Node(r.Node).Kind == topo.KindSwitch {
					gt.CausalSwitches[r.Node] = true
				}
			}
		}
	}
	for _, sw := range c.cycle {
		gt.CausalSwitches[sw] = true
	}
	return c
}

// BuildInLoopDeadlock reproduces Fig. 1(c): the CBD flows run rate-capped
// (the cycle is busy but healthy); at the anomaly time, short line-rate
// micro-bursts slam one cycle link (agg1-0 -> core1). The transient
// contention closes the pause cycle and the deadlock persists long after
// the bursts end — the paper's "short-duration flow contention (<1 ms)
// then leads to a persistent deadlock".
func BuildInLoopDeadlock(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	gt := &GroundTruth{
		Scenario: NameInLoop,
		Type:     diagnosis.TypeInLoopDeadlock,
		Culprits: make(map[packet.FiveTuple]bool),
		// The initial congestion point lies INSIDE the loop (Table 2);
		// once the circular wait locks, any loop port is an admissible
		// anchor — the paper's own case study reads the root cause off
		// the loop's port-flow edges (Fig. 12c).
		InitialSwitches: map[topo.NodeID]bool{
			ft.Agg[0][0]: true, ft.Core[0]: true, ft.Agg[1][0]: true, ft.Core[1]: true,
		},
		CausalSwitches: make(map[topo.NodeID]bool),
		Victims:        make(map[packet.FiveTuple]bool),
		AnomalyAt:      p.AnomalyStart(),
	}
	gt.ScoreAfter = gt.AnomalyAt + 300*sim.Microsecond
	c := buildCBD(cl, ft, 40e9, cycleFlowBytes, gt)
	// The cycle flows are themselves part of the in-loop contention (the
	// paper's Fig. 12c lists F1-F4 as causing the PFC spreading loop).
	for _, f := range c.flows {
		gt.Culprits[f.Tuple] = true
	}
	// Bursts from pod1 hosts through agg1-0 up to core1, exiting in pod3.
	t := cl.Topo
	upPort := portToward(t, ft.Agg[1][0], ft.Core[1])
	burstSrcs := []topo.NodeID{ft.PodHosts[1][1], ft.PodHosts[1][3]}
	burstDsts := []topo.NodeID{ft.PodHosts[3][1], ft.PodHosts[3][3]}
	for i := range burstSrcs {
		dst := burstDsts[i]
		srcEdge := ft.Edge[1][i] // host 1 under edge1-0, host 3 under edge1-1
		cl.Routing.Override(srcEdge, dst, []int{portToward(t, srcEdge, ft.Agg[1][0])})
		cl.Routing.Override(ft.Agg[1][0], dst, []int{upPort})
	}
	// One sustained round per source: the two clumps share the 100G
	// agg1-0 uplink, so they overload it for several hundred µs — long
	// enough for the pause cycle to close, short enough to be
	// "short-duration flow contention" (§2.1).
	for i, src := range burstSrcs {
		b := cl.StartFlow(src, burstDsts[i], 2*BurstBytes, gt.AnomalyAt)
		gt.Culprits[b.Tuple] = true
		pathSwitches(cl, b, burstDsts[i], gt.CausalSwitches)
	}
	return gt
}

// BuildOutLoopInjection reproduces Fig. 1(d): the CBD flows are
// rate-capped below link capacity (the cycle is busy but healthy); a
// host outside the loop injects PFC and drives the cycle into deadlock.
func BuildOutLoopInjection(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	rogue := ft.PodHosts[1][0] // destination of cycle flow F0
	gt := &GroundTruth{
		Scenario:        NameOutLoopInject,
		Type:            diagnosis.TypeOutLoopDeadlockInjection,
		Injector:        rogue,
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[1][0]: true},
		CausalSwitches:  make(map[topo.NodeID]bool),
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	gt.ScoreAfter = gt.AnomalyAt + 300*sim.Microsecond
	buildCBD(cl, ft, 40e9, cycleFlowBytes, gt)
	cl.Hosts[rogue].InjectPFC(gt.AnomalyAt, gt.AnomalyAt+InjectFor, packet.MaxPauseQuanta)
	return gt
}

// BuildOutLoopContention is the flow-contention variant of the
// out-of-loop initiator: micro-bursts congest the port where cycle flow
// F0 exits, and the backpressure closes the loop.
func BuildOutLoopContention(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	target := ft.PodHosts[1][0] // destination of cycle flow F0
	gt := &GroundTruth{
		Scenario:        NameOutLoopBurst,
		Type:            diagnosis.TypeOutLoopDeadlockContention,
		Culprits:        make(map[packet.FiveTuple]bool),
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[1][0]: true, ft.Agg[1][0]: true, ft.Agg[1][1]: true},
		CausalSwitches:  make(map[topo.NodeID]bool),
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	gt.ScoreAfter = gt.AnomalyAt + 700*sim.Microsecond
	// When the cycle's cross-edges age out of the causality meter before
	// the scored complaint, the diagnosis degrades to plain PFC
	// backpressure — with the SAME initial point and culprits. The paper's
	// own deadlock precision is likewise bounded by telemetry retention
	// (Fig. 7); accept the degradation as long as the root cause holds.
	gt.AltTypes = []diagnosis.AnomalyType{diagnosis.TypePFCContention}
	buildCBD(cl, ft, 40e9, cycleFlowBytes, gt)
	// The contention initiator must outlive congestion control and hold
	// the exit port saturated until the circular wait locks: a long-lived
	// full-rate flow (think misbehaving bulk transfer) plus synchronized
	// bursts from two more hosts.
	long := cl.StartFlow(ft.PodHosts[1][1], target, cycleFlowBytes, gt.AnomalyAt)
	gt.Culprits[long.Tuple] = true
	pathSwitches(cl, long, target, gt.CausalSwitches)
	for _, src := range []topo.NodeID{ft.PodHosts[3][1], ft.PodHosts[3][3]} {
		b := cl.StartFlow(src, target, 8*BurstBytes, gt.AnomalyAt)
		gt.Culprits[b.Tuple] = true
		pathSwitches(cl, b, target, gt.CausalSwitches)
	}
	return gt
}

// BuildNormalContention crafts transient shallow bursts that inflate
// queueing delay without ever crossing a PFC threshold: the degenerate
// traditional-diagnosis case (Table 2, last row).
func BuildNormalContention(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	target := ft.PodHosts[2][0]
	gt := &GroundTruth{
		Scenario:        NameNormal,
		Type:            diagnosis.TypeNormalContention,
		Culprits:        make(map[packet.FiveTuple]bool),
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[2][0]: true},
		CausalSwitches:  make(map[topo.NodeID]bool),
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	// Victim shares only the target's egress queue; it runs across the
	// burst rounds so its RTT samples straddle the contention.
	victim := cl.StartFlowRate(ft.PodHosts[2][2], target, 20_000_000, p.warmStart(), 25e9)
	gt.Victims[victim.Tuple] = true
	pathSwitches(cl, victim, target, gt.CausalSwitches)
	// Shallow bursts from the target's sibling host: local line-rate
	// clumps that build a real queue at the target port yet stay below
	// the (deep-buffer) Xoff — contention without a single PFC frame.
	// Remote senders would be smeared by the fabric before reaching the
	// port, so the sibling is the honest culprit here.
	for round := 0; round < burstRounds+1; round++ {
		at := gt.AnomalyAt + sim.Time(round)*p.EpochSize
		b := cl.StartFlow(ft.PodHosts[2][1], target, 600_000, at)
		gt.Culprits[b.Tuple] = true
		pathSwitches(cl, b, target, gt.CausalSwitches)
	}
	return gt
}
