// Host-side anomaly scenarios: the pathological endpoint looks, from the
// fabric, exactly like BuildStorm's rogue — a host-facing port under
// sustained PFC with no flow contention behind it. Only the host-agent
// counter channel lets the diagnoser tell a slow receiver from a
// thrashing NIC from spurious pause injection. Senders are deliberately
// symmetric (same rate, same start) so their contention contributions
// cancel and the walk terminates in the injection branch, as in the real
// pathologies: the traffic is innocent, the endpoint is not.
package workload

import (
	"hawkeye/internal/cluster"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// Host scenario names.
const (
	NameSlowReceiver   = "host-slow-receiver"
	NameCacheThrash    = "host-cache-thrash"
	NameHostPauseStorm = "host-pause-storm"
)

// hostGT builds the common ground truth of the host scenarios: the sick
// host is pod1's first host (as in BuildStorm), the anomaly is a PFC
// storm whose refined cause is the installed pathology.
func hostGT(name string, ft *topo.FatTree, p Params, cause diagnosis.CauseKind) (*GroundTruth, topo.NodeID) {
	sick := ft.PodHosts[1][0]
	gt := &GroundTruth{
		Scenario:        name,
		Type:            diagnosis.TypePFCStorm,
		HostCause:       cause,
		Injector:        sick,
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[1][0]: true},
		CausalSwitches:  make(map[topo.NodeID]bool),
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       p.AnomalyStart(),
	}
	// The pathologies ramp: a slow receiver's RX buffer needs tens of
	// microseconds at the drain deficit to cross XOFF, and until it does
	// the fabric sees ordinary transient congestion. A trigger racing
	// that ramp sees a host snapshot with PauseTx=0 and grades the
	// transitional state; score the matured form, as the deadlock
	// scenarios do.
	gt.ScoreAfter = gt.AnomalyAt + 300*sim.Microsecond
	return gt, sick
}

// installPathology arms the pathology on the sick host for the anomaly
// window, deriving the pathology's jitter stream from the cluster seed
// so a trial is reproducible from its seed alone.
func installPathology(cl *cluster.Cluster, sick topo.NodeID, kind host.PathologyKind, gt *GroundTruth) {
	cl.Hosts[sick].InstallPathology(host.PathologyConfig{
		Kind:  kind,
		Seed:  cl.Cfg.Seed ^ (0x505AB10C00 + uint64(kind)),
		Start: gt.AnomalyAt,
		Stop:  gt.AnomalyAt + InjectFor,
	})
}

// BuildSlowReceiver models the PCIe/DMA-bottlenecked endpoint: three
// remote senders offer 75G — comfortably under the 100G link, so the
// fabric is anomaly-free — while the sick host drains at 20G. The RX
// buffer fills, the NIC asserts sustained PFC, and the fabric sees a
// storm whose true cause is the receiver.
func BuildSlowReceiver(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	gt, sick := hostGT(NameSlowReceiver, ft, p, diagnosis.CauseSlowReceiver)
	installPathology(cl, sick, host.PathologySlowReceiver, gt)
	for _, src := range []topo.NodeID{ft.PodHosts[0][0], ft.PodHosts[0][1], ft.PodHosts[3][1]} {
		f := cl.StartFlowRate(src, sick, 40_000_000, p.warmStart(), 25e9)
		gt.Victims[f.Tuple] = true
		pathSwitches(cl, f, sick, gt.CausalSwitches)
	}
	return gt
}

// BuildCacheThrash models the connection-cache-thrashing NIC: six QPs of
// fan-in push per-packet processing latency from 150 ns to ~1 µs, the
// effective drain collapses below the offered 72G, and the buffer-driven
// PFC is indistinguishable on the wire from the slow receiver — the
// discriminant is the latency proxy and QP count in the host report.
func BuildCacheThrash(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	gt, sick := hostGT(NameCacheThrash, ft, p, diagnosis.CauseHostProcessingBound)
	installPathology(cl, sick, host.PathologyCacheThrash, gt)
	srcs := []topo.NodeID{
		ft.PodHosts[0][0], ft.PodHosts[0][1], ft.PodHosts[0][2],
		ft.PodHosts[3][0], ft.PodHosts[3][1], ft.PodHosts[3][2],
	}
	for _, src := range srcs {
		f := cl.StartFlowRate(src, sick, 30_000_000, p.warmStart(), 12e9)
		gt.Victims[f.Tuple] = true
		pathSwitches(cl, f, sick, gt.CausalSwitches)
	}
	return gt
}

// BuildHostPauseStorm is BuildStorm re-expressed through the pathology
// layer: spurious seed-jittered pause bursts decoupled from buffer state.
// The host report's signature — pauses emitted, RX buffer empty — is what
// separates it from the legitimate backpressure of the other two.
func BuildHostPauseStorm(cl *cluster.Cluster, ft *topo.FatTree, p Params) *GroundTruth {
	gt, sick := hostGT(NameHostPauseStorm, ft, p, diagnosis.CauseHostPauseStorm)
	installPathology(cl, sick, host.PathologyPauseStorm, gt)
	for _, src := range []topo.NodeID{ft.PodHosts[0][0], ft.PodHosts[0][1], ft.PodHosts[3][1]} {
		f := cl.StartFlowRate(src, sick, 40_000_000, p.warmStart(), 25e9)
		gt.Victims[f.Tuple] = true
		pathSwitches(cl, f, sick, gt.CausalSwitches)
	}
	return gt
}
