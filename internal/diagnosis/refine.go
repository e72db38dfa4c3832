package diagnosis

import (
	"hawkeye/internal/topo"
)

// CauseDetail refines a flow-contention root cause (§3.5.2): once the
// contributing flows are identified, the analyzer distinguishes WHY they
// overloaded the port — a synchronized micro-burst, ECMP hash imbalance
// (the contributors had equal-cost alternatives and polarized anyway),
// or plain long-lived overload of a port with no alternatives (e.g. a
// host-facing incast of elephants).
type CauseDetail int

const (
	// DetailUnknown: not a flow-contention cause, or no contributors.
	DetailUnknown CauseDetail = iota
	// DetailMicroBurst: the contributors are burst-classified (short,
	// line-rate, few epochs).
	DetailMicroBurst
	// DetailECMPImbalance: the contributors converged on this port while
	// equal-cost siblings existed — hash polarization, not demand.
	DetailECMPImbalance
	// DetailOverload: long-lived contributors saturating a port that is
	// the only path (destination-bound incast, elephant overload).
	DetailOverload
)

var causeDetailNames = [...]string{
	DetailUnknown:       "unknown",
	DetailMicroBurst:    "micro-burst",
	DetailECMPImbalance: "ecmp-imbalance",
	DetailOverload:      "overload",
}

func (d CauseDetail) String() string { return enumName(causeDetailNames[:], int(d)) }

// Refine classifies a flow-contention cause. Routing is consulted to
// decide whether the contributors had equal-cost alternatives at the
// congested switch; burst classification comes from the provenance
// graph (already recorded in the cause).
func Refine(cause RootCause, r *topo.Routing, t *topo.Topology) CauseDetail {
	if cause.Kind != CauseFlowContention || len(cause.Flows) == 0 {
		return DetailUnknown
	}
	// A host-facing congested port is destination-bound — no alternative
	// path could have helped; the only question is the contributors'
	// shape (short burst vs sustained overload).
	if t.IsHostFacing(cause.Port.Node, cause.Port.Port) {
		if 2*len(cause.BurstFlows) >= len(cause.Flows) {
			return DetailMicroBurst
		}
		return DetailOverload
	}
	// Fabric port: if the contributors had equal-cost alternatives and
	// converged here anyway, the actionable cause is the hashing, not the
	// traffic — checked BEFORE the burst shape because a freshly started
	// elephant is indistinguishable from a burst at diagnosis time, while
	// the alternative-path evidence is unambiguous either way.
	withAlt := 0
	for _, f := range cause.Flows {
		dst, ok := t.HostByIP(f.DstIP)
		if !ok {
			continue
		}
		hops := r.NextHops(cause.Port.Node, dst)
		if len(hops) < 2 {
			continue
		}
		for _, p := range hops {
			if p == cause.Port.Port {
				withAlt++
				break
			}
		}
	}
	if 2*withAlt >= len(cause.Flows) {
		return DetailECMPImbalance
	}
	if 2*len(cause.BurstFlows) >= len(cause.Flows) {
		return DetailMicroBurst
	}
	return DetailOverload
}
