// Package diagnosis implements Hawkeye's provenance analysis (§3.5.2,
// Algorithm 2): walk the port-level wait-for graph from the victim flow's
// paused hops, detect PFC spreading paths and loops, classify terminal
// ports as flow contention vs. host PFC injection, and match the anomaly
// signatures of Table 2.
package diagnosis

import (
	"fmt"
	"strings"

	"hawkeye/internal/packet"
	"hawkeye/internal/provenance"
	"hawkeye/internal/topo"
)

// AnomalyType enumerates the Table 2 anomaly cases.
type AnomalyType int

const (
	// TypeNone: nothing anomalous found in the provenance.
	TypeNone AnomalyType = iota
	// TypeNormalContention: no PFC spreading; plain queue contention.
	TypeNormalContention
	// TypePFCContention: PFC backpressure whose initial congestion is
	// flow contention (micro-burst incast and relatives).
	TypePFCContention
	// TypePFCStorm: cascading PFC caused by host PFC injection.
	TypePFCStorm
	// TypeInLoopDeadlock: deadlock whose initiator is inside the CBD loop.
	TypeInLoopDeadlock
	// TypeOutLoopDeadlockContention: deadlock triggered by flow
	// contention outside the loop.
	TypeOutLoopDeadlockContention
	// TypeOutLoopDeadlockInjection: deadlock triggered by host PFC
	// injection outside the loop.
	TypeOutLoopDeadlockInjection
)

var anomalyTypeNames = [...]string{
	TypeNone:                      "none",
	TypeNormalContention:          "normal-flow-contention",
	TypePFCContention:             "pfc-backpressure-contention",
	TypePFCStorm:                  "pfc-storm",
	TypeInLoopDeadlock:            "in-loop-deadlock",
	TypeOutLoopDeadlockContention: "out-of-loop-deadlock-contention",
	TypeOutLoopDeadlockInjection:  "out-of-loop-deadlock-injection",
}

func (t AnomalyType) String() string {
	if t < 0 || int(t) >= len(anomalyTypeNames) {
		return fmt.Sprintf("AnomalyType(%d)", int(t))
	}
	return anomalyTypeNames[t]
}

// ParseAnomalyType inverts AnomalyType.String (wire filters carry the
// string form). The second result is false for unknown names.
func ParseAnomalyType(s string) (AnomalyType, bool) {
	for t, name := range anomalyTypeNames {
		if name == s {
			return AnomalyType(t), true
		}
	}
	return TypeNone, false
}

// enumName returns names[i], or the zero value's name when i is out of
// range: a kind decoded from a newer peer prints as the default.
func enumName(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return names[0]
	}
	return names[i]
}

// IsDeadlock reports whether the type is one of the deadlock cases.
func (t AnomalyType) IsDeadlock() bool {
	return t == TypeInLoopDeadlock || t == TypeOutLoopDeadlockContention || t == TypeOutLoopDeadlockInjection
}

// CauseKind distinguishes Table 2 root-cause columns.
type CauseKind int

const (
	// CauseFlowContention: flows overfilling a queue.
	CauseFlowContention CauseKind = iota
	// CauseHostInjection: a host emitting PFC frames for no reason the
	// telemetry can name — the generic host-side verdict when no
	// host-agent counters are available to refine it.
	CauseHostInjection
	// CauseSlowReceiver: the host's RX buffer sits full because the
	// application drains it below line rate; the PFC is legitimate
	// backpressure from a host that cannot keep up.
	CauseSlowReceiver
	// CauseHostProcessingBound: the NIC's per-packet processing cost
	// degraded under QP fan-in (cache thrash); the buffer backs up even
	// though the drain path is nominally fast.
	CauseHostProcessingBound
	// CauseHostPauseStorm: the host emits PFC decoupled from its buffer
	// state — spurious pauses from a malfunctioning NIC.
	CauseHostPauseStorm
)

var causeKindNames = [...]string{
	CauseFlowContention:      "flow-contention",
	CauseHostInjection:       "host-pfc-injection",
	CauseSlowReceiver:        "host-slow-receiver",
	CauseHostProcessingBound: "host-processing-bound",
	CauseHostPauseStorm:      "host-pause-storm",
}

func (k CauseKind) String() string { return enumName(causeKindNames[:], int(k)) }

// IsHostSide reports whether the kind blames the host behind the
// terminal port rather than network flow contention.
func (k CauseKind) IsHostSide() bool {
	return k != CauseFlowContention
}

// RootCause pins one initial congestion point.
type RootCause struct {
	Kind CauseKind
	// Port is the initial congestion point (terminal of the PFC walk).
	Port topo.PortRef
	// Flows are the contention contributors, descending by weight.
	Flows []packet.FiveTuple
	// BurstFlows marks which contributors are burst-classified.
	BurstFlows []packet.FiveTuple
	// InjectorHostFacing is true when Port faces the injecting host.
	InjectorHostFacing bool
	// Host is the implicated host behind Port. Only meaningful when
	// InjectorHostFacing is true.
	Host topo.NodeID
}

// Config tunes signature matching.
type Config struct {
	// MinContribution: a flow is a contention contributor only if its
	// net port-flow weight exceeds this (packets kept waiting on
	// average). Filters the symmetric near-zero noise of flows that
	// merely share a paused queue.
	MinContribution float64
	// ContributorFrac additionally requires a contributor to reach this
	// fraction of the top contributor's weight.
	ContributorFrac float64
	// HostProcLatencyNS: a host leaf whose per-packet processing-latency
	// proxy is at or above this (and whose fan-in reaches HostFanIn)
	// is processing-bound rather than merely slow to drain.
	HostProcLatencyNS uint64
	// HostFanIn is the active-QP count above which degraded processing
	// latency is attributed to cache thrash under fan-in.
	HostFanIn uint32
}

// DefaultConfig returns the evaluation defaults.
func DefaultConfig() Config {
	return Config{
		MinContribution:   2.0,
		ContributorFrac:   0.1,
		HostProcLatencyNS: 600,
		HostFanIn:         4,
	}
}

// Confidence grades how well the telemetry behind a diagnosis supports
// its conclusion. Under fault injection (internal/chaos) the evidence
// thins out; the grade must thin out with it — a wrong root cause
// reported with high confidence is worse than no diagnosis at all.
type Confidence int

const (
	// ConfLow: major evidence gaps; treat the conclusion as a hint.
	ConfLow Confidence = iota
	// ConfMedium: the conclusion is supported but parts of the causality
	// chain rest on sparse evidence.
	ConfMedium
	// ConfHigh: the full causality chain is backed by telemetry.
	ConfHigh
)

var confidenceNames = [...]string{ConfLow: "low", ConfMedium: "medium", ConfHigh: "high"}

func (c Confidence) String() string { return enumName(confidenceNames[:], int(c)) }

// Report is the diagnosis outcome for one victim.
type Report struct {
	Victim packet.FiveTuple
	Type   AnomalyType
	Causes []RootCause
	// PFCPaths are the port chains walked from the victim to each
	// terminal (the "how" of the anomaly).
	PFCPaths [][]topo.PortRef
	// Loop holds the deadlock cycle when one was found.
	Loop []topo.PortRef
	// Spreaders are flows paused at two or more ports: the carriers of
	// the PFC spreading (e.g. F2 in Fig. 12a).
	Spreaders []packet.FiveTuple
	// VictimPausedAt lists the ports where the victim itself was paused.
	VictimPausedAt []topo.PortRef
	// Confidence grades the evidence behind the conclusion;
	// ConfidenceScore is the underlying [0,1] value (levels: >=0.8 high,
	// >=0.45 medium).
	Confidence      Confidence
	ConfidenceScore float64
	// Missing lists the evidence gaps that degraded the confidence, in
	// the order they were assessed.
	Missing []string
}

// PrimaryCause returns the first root cause (the analysis orders causes
// by walk origin weight), or a zero RootCause if none.
func (r *Report) PrimaryCause() RootCause {
	if len(r.Causes) == 0 {
		return RootCause{}
	}
	return r.Causes[0]
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosis for %v: %v\n", r.Victim, r.Type)
	for _, c := range r.Causes {
		fmt.Fprintf(&b, "  cause: %v at %v", c.Kind, c.Port)
		if len(c.Flows) > 0 {
			fmt.Fprintf(&b, " flows=%v", c.Flows)
		}
		b.WriteString("\n")
	}
	if len(r.Loop) > 0 {
		fmt.Fprintf(&b, "  loop: %v\n", r.Loop)
	}
	for _, p := range r.PFCPaths {
		fmt.Fprintf(&b, "  pfc-path: %v\n", p)
	}
	if len(r.Spreaders) > 0 {
		fmt.Fprintf(&b, "  spreading flows: %v\n", r.Spreaders)
	}
	fmt.Fprintf(&b, "  confidence: %v (%.2f)\n", r.Confidence, r.ConfidenceScore)
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "  missing: %s\n", m)
	}
	return b.String()
}

// analyzer carries the walk state.
type analyzer struct {
	g    *provenance.Graph
	t    *topo.Topology
	cfg  Config
	rep  *Report
	seen map[topo.PortRef]bool
}

// Diagnose runs Algorithm 2 for one victim flow.
func Diagnose(cfg Config, g *provenance.Graph, t *topo.Topology, victim packet.FiveTuple) *Report {
	a := &analyzer{
		g:    g,
		t:    t,
		cfg:  cfg,
		rep:  &Report{Victim: victim},
		seen: make(map[topo.PortRef]bool),
	}
	a.rep.VictimPausedAt = g.VictimPorts(victim)

	// Walk PFC causality from every hop where the victim is paused.
	roots := a.rep.VictimPausedAt
	if len(roots) == 0 {
		// Deadlock freezes per-packet telemetry: the victim may have no
		// paused-count evidence at all. Fall back to the live pause
		// registers of the collected (hence causally relevant) switches.
		roots = g.PausedPorts()
	}
	for _, p := range roots {
		a.checkPortNode(p, nil)
	}

	a.rep.Spreaders = a.spreaders()
	a.classify()
	a.assess()
	return a.rep
}

// penalty is one row of the confidence grade. assess multiplies the
// score by factor when the row's condition holds and appends its note
// (a fmt format when the row takes arguments; "" appends nothing). A
// nonzero scale makes the factor factor + scale*frac, where frac is the
// row's share of the evidence that arrived.
type penalty struct {
	name          string
	factor, scale float64
	note          string
}

// The penalty rows, in the order assess checks them.
const (
	penSwitchCoverage = iota
	penEpochDepth
	penRejectedReports
	penCorruption
	penNoVictimTelemetry
	penVictimNeverPaused
	penSwitchFacingInjection
	penIncompleteInjection
	penUncorroboratedHost
	penRejectedHostSnapshots
	penSingleSampleEdge
	penTwoSampleEdge
	numPenalties
)

var penalties = [numPenalties]penalty{
	penSwitchCoverage:        {"switch-coverage", 0.35, 0.65, "no report from %d of %d victim-path switches"},
	penEpochDepth:            {"epoch-depth", 0.7, 0.3, "telemetry epochs sparse: %.1f per report on average"},
	penRejectedReports:       {"rejected-reports", 0.6, 0, "%d telemetry reports rejected at admission; their switches were heard from and disbelieved"},
	penCorruption:            {"corrupt-telemetry", 0.7, 0, "accepted telemetry carried corruption: %d values clamped, %d records outside the topology"},
	penNoVictimTelemetry:     {"no-victim-telemetry", 0.6, 0, "no flow telemetry for the victim anywhere"},
	penVictimNeverPaused:     {"victim-never-paused", 0.75, 0, "victim never recorded paused; walk rooted at live pause registers"},
	penSwitchFacingInjection: {"switch-facing-injection", 0.55, 0, "PFC attributed to injection at a switch-to-switch port; upstream contention telemetry may be lost"},
	penIncompleteInjection:   {"epoch-incomplete-injection", 0.7, 0, "an injection conclusion rests on an epoch-incomplete report; the missing epochs may hold the real contention"},
	penUncorroboratedHost:    {"uncorroborated-host", 0.55, 0, "no host-agent snapshot from the host behind the initial congestion point; host-vs-network attribution is uncorroborated"},
	penRejectedHostSnapshots: {"rejected-host-snapshots", 0.7, 0, "%d host-agent snapshots rejected at admission"},
	penSingleSampleEdge:      {"single-sample-edge", 0.75, 0, "a PFC-path edge rests on a single causality-meter sample"},
	penTwoSampleEdge:         {"two-sample-edge", 0.9, 0, ""},
}

// assess grades the evidence behind the classification. Each gap fires
// a row of penalties, so independent degradations compound; the notes
// name what is missing so an operator knows which telemetry to go fetch
// before trusting (or re-running) the diagnosis.
func (a *analyzer) assess() {
	r := a.rep
	if len(a.g.Ports) == 0 {
		// Nothing collected at all: whatever classify concluded (TypeNone)
		// is an absence of evidence, not evidence of absence.
		r.ConfidenceScore = 0.05
		r.Confidence = ConfLow
		r.Missing = append(r.Missing, "no telemetry collected; diagnosis is a default, not a conclusion")
		return
	}
	score := 1.0
	fire := func(row int, args ...any) {
		p := &penalties[row]
		score *= p.factor
		if len(args) > 0 {
			r.Missing = append(r.Missing, fmt.Sprintf(p.note, args...))
		} else if p.note != "" {
			r.Missing = append(r.Missing, p.note)
		}
	}
	if cov := a.g.Coverage; cov != nil {
		if cov.Expected > 0 {
			p := &penalties[penSwitchCoverage]
			score *= p.factor + p.scale*cov.Frac()
			if n := len(cov.MissingSwitches); n > 0 {
				r.Missing = append(r.Missing, fmt.Sprintf(p.note, n, cov.Expected))
			}
		}
		if cov.Collected > 0 {
			avg := cov.AvgEpochs()
			frac := avg / 3
			if frac > 1 {
				frac = 1
			}
			p := &penalties[penEpochDepth]
			score *= p.factor + p.scale*frac
			if avg < 2 {
				r.Missing = append(r.Missing, fmt.Sprintf(p.note, avg))
			}
		}
		// Rejected and clamped telemetry is worse than missing telemetry:
		// something in the fabric is emitting garbage, and whatever shares
		// a corruption source with it may be subtly wrong without tripping
		// a check. Each rejected report compounds (capped at three), and
		// any detected corruption in accepted evidence caps the grade below
		// ConfHigh on its own.
		if cov.Rejected > 0 {
			p := &penalties[penRejectedReports]
			for i := 0; i < cov.Rejected && i < 3; i++ {
				score *= p.factor
			}
			r.Missing = append(r.Missing, fmt.Sprintf(p.note, cov.Rejected))
		}
		if cov.Clamped > 0 || cov.Suspect > 0 {
			fire(penCorruption, cov.Clamped, cov.Suspect)
		}
	}
	if len(r.VictimPausedAt) == 0 {
		if len(a.g.Flows[r.Victim]) == 0 {
			fire(penNoVictimTelemetry)
		} else {
			fire(penVictimNeverPaused)
		}
	}
	// Host-injection conclusions are negative evidence: the walk found NO
	// contention behind a paused port. Absence only means something when
	// the telemetry that would have shown contention actually arrived, and
	// a switch-to-switch port blaming its peer for injecting PFC is
	// physically suspect outside a deadlock — switches relay pressure,
	// hosts originate it. Both patterns are the signature of contention
	// records lost to telemetry faults, so they cap the grade.
	switchFacing, incomplete := false, false
	for _, c := range r.Causes {
		if !c.Kind.IsHostSide() {
			continue
		}
		if !c.InjectorHostFacing && !r.Type.IsDeadlock() {
			switchFacing = true
		}
		if cov := a.g.Coverage; cov != nil {
			if n := cov.SwitchEpochs(c.Port.Node); n < cov.MaxSwitchEpochs() {
				incomplete = true
			}
		}
	}
	if switchFacing {
		fire(penSwitchFacingInjection)
	}
	if incomplete {
		fire(penIncompleteInjection)
	}
	// Host-agent coverage. When the analyzer queried host agents
	// (HostsExpected > 0), a root cause anchored at a host-facing port —
	// whichever side it blames — is only fully trustworthy if the host
	// behind that port delivered its counter snapshot. Without it a
	// host-caused anomaly and a network-caused one look identical from
	// the switch side, so the grade must stay below high: this is the
	// monotone-penalty contract of the degraded mode. Rejected host
	// snapshots are graded like rejected switch telemetry: heard from
	// and disbelieved.
	if cov := a.g.Coverage; cov != nil && cov.HostsExpected > 0 {
		hostGap := false
		for _, c := range r.Causes {
			if !a.t.IsHostFacing(c.Port.Node, c.Port.Port) {
				continue
			}
			peer, _ := a.t.PeerOf(c.Port.Node, c.Port.Port)
			if a.g.Hosts[peer] == nil {
				hostGap = true
			}
		}
		if hostGap {
			fire(penUncorroboratedHost)
		}
		if cov.HostsRejected > 0 {
			fire(penRejectedHostSnapshots, cov.HostsRejected)
		}
	}
	// The causality chain is only as strong as its weakest wait-for edge.
	minEv := -1
	for _, path := range r.PFCPaths {
		for i := 0; i+1 < len(path); i++ {
			ev := a.g.EdgeEvidence(path[i], path[i+1])
			if minEv < 0 || ev < minEv {
				minEv = ev
			}
		}
	}
	switch {
	case minEv >= 0 && minEv <= 1:
		fire(penSingleSampleEdge)
	case minEv == 2:
		fire(penTwoSampleEdge)
	}
	r.ConfidenceScore = score
	switch {
	case score >= 0.8:
		r.Confidence = ConfHigh
	case score >= 0.45:
		r.Confidence = ConfMedium
	default:
		r.Confidence = ConfLow
	}
}

// checkPortNode is the DFS of Algorithm 2 (CheckPortNode): follow
// port-level wait-for edges, record loops, and analyze terminals.
func (a *analyzer) checkPortNode(p topo.PortRef, stack []topo.PortRef) {
	for i, q := range stack {
		if q == p {
			// Cycle: record the loop once. A single-port self-edge is
			// measurement noise, not a CBD — a circular wait needs at
			// least two buffers.
			if len(a.rep.Loop) == 0 && len(stack)-i >= 2 {
				a.rep.Loop = append([]topo.PortRef(nil), stack[i:]...)
			}
			return
		}
	}
	stack = append(stack, p)
	if a.seen[p] {
		return
	}
	a.seen[p] = true

	next := a.g.PortNeighbors(p)
	if len(next) == 0 {
		// Initial node of the PFC spreading: analyze local contention.
		a.rep.PFCPaths = append(a.rep.PFCPaths, append([]topo.PortRef(nil), stack...))
		a.rep.Causes = append(a.rep.Causes, a.analyzeFlowContention(p))
		return
	}
	for _, q := range next {
		a.checkPortNode(q, stack)
	}
}

// analyzeFlowContention implements AnalyzeFlowContention: positive
// port-flow edges mean contention; none means the PFC was injected by
// the port's peer device.
func (a *analyzer) analyzeFlowContention(p topo.PortRef) RootCause {
	if a.hostPauser(p) {
		// The port faces a host whose own counters show it transmitting
		// PFC. Any positive flow weights here are artifacts of the
		// inter-pause drain — the flows behind the port are victims of
		// the pausing endpoint, not contributors — so the terminal is an
		// injection, refined by the host signature.
		return a.analyzeInjection(p)
	}
	flows := a.contributors(p)
	if len(flows) == 0 {
		return a.analyzeInjection(p)
	}
	rc := RootCause{Kind: CauseFlowContention, Port: p, Flows: flows}
	for _, f := range flows {
		if a.g.IsBurstFlow(f, p) {
			rc.BurstFlows = append(rc.BurstFlows, f)
		}
	}
	return rc
}

// analyzeInjection classifies an empty-contributor terminal. Without
// host-agent counters the verdict stays the generic host-PFC-injection
// of Algorithm 2. When the host behind the port delivered a counter
// snapshot, its signature refines the pathology (extended Table 2):
// pauses with an empty RX buffer are spurious (pause storm); a full
// buffer with degraded per-packet latency under fan-in is a
// processing-bound NIC; a full buffer otherwise is a slow receiver.
func (a *analyzer) analyzeInjection(p topo.PortRef) RootCause {
	rc := RootCause{
		Kind:               CauseHostInjection,
		Port:               p,
		InjectorHostFacing: a.t.IsHostFacing(p.Node, p.Port),
	}
	if !rc.InjectorHostFacing {
		return rc
	}
	rc.Host, _ = a.t.PeerOf(p.Node, p.Port)
	hi := a.g.Hosts[rc.Host]
	if hi == nil || hi.Report.PauseTx == 0 {
		// No host evidence, or the host denies pausing at all: keep the
		// generic verdict and let assess grade the gap.
		return rc
	}
	rep := hi.Report
	switch {
	case rep.RxBufferCap == 0 || rep.RxBufferBytes*8 < rep.RxBufferCap:
		// Pausing with a (near-)empty buffer: the PFC is decoupled from
		// buffer state.
		rc.Kind = CauseHostPauseStorm
	case rep.RxBufferBytes*4 >= rep.RxBufferCap &&
		rep.ProcLatencyNS >= a.cfg.HostProcLatencyNS &&
		rep.ActiveQPs >= a.cfg.HostFanIn:
		rc.Kind = CauseHostProcessingBound
	case rep.RxBufferBytes*4 >= rep.RxBufferCap:
		rc.Kind = CauseSlowReceiver
	}
	return rc
}

// contributors filters the port-flow edges by the significance rules.
func (a *analyzer) contributors(p topo.PortRef) []packet.FiveTuple {
	all := a.g.Contributors(p)
	var out []packet.FiveTuple
	var top float64
	for i, f := range all {
		w := a.g.PortFlow[p][f]
		if i == 0 {
			top = w
		}
		if w >= a.cfg.MinContribution && w >= a.cfg.ContributorFrac*top {
			out = append(out, f)
		}
	}
	return out
}

// spreaders finds flows paused at two or more ports.
func (a *analyzer) spreaders() []packet.FiveTuple {
	var out []packet.FiveTuple
	for f, ports := range a.g.FlowPort {
		if f == a.rep.Victim {
			continue
		}
		n := 0
		for _, w := range ports {
			if w > 0 {
				n++
			}
		}
		if n >= 2 {
			out = append(out, f)
		}
	}
	packet.SortByString(out)
	return out
}

// shape is the PFC structure the walk found: Table 2's rows.
type shape int

const (
	shapeNoPFC     shape = iota // no port waits on another
	shapeSpreading              // PFC spreads from the initial congestion point
	shapeInLoop                 // a wait-for loop, initiated inside it
	shapeOutOfLoop              // a wait-for loop, initiated by a branch off it
	numShapes
)

// column is the kind of initial congestion point: Table 2's columns.
type column int

const (
	colContention column = iota // flows overfilling a queue
	colHostSide                 // a host behind the port
	colNotFound                 // no initiator the shape's rule accepts
	numColumns
)

// table2 is the paper's Table 2, extended with the fallback column.
var table2 = [numShapes][numColumns]AnomalyType{
	shapeNoPFC:     {TypeNormalContention, TypeNone, TypeNone},
	shapeSpreading: {TypePFCContention, TypePFCStorm, TypePFCStorm},
	shapeInLoop:    {TypeInLoopDeadlock, TypeInLoopDeadlock, TypeInLoopDeadlock},
	shapeOutOfLoop: {TypeOutLoopDeadlockContention, TypeOutLoopDeadlockInjection, TypeOutLoopDeadlockInjection},
}

// classify matches the walk results against Table 2: find the shape and
// the initiator, look up the type, and put the initiator first.
func (a *analyzer) classify() {
	s, cause, found := a.initiator()
	col := colNotFound
	if found {
		col = colContention
		if cause.Kind.IsHostSide() {
			col = colHostSide
		}
	}
	a.rep.Type = table2[s][col]
	if found && a.rep.Type != TypeNone {
		a.promoteCause(cause)
	}
}

// initiator finds the walk's shape and, by that shape's rule, the
// initial congestion point.
func (a *analyzer) initiator() (shape, RootCause, bool) {
	r := a.rep
	switch {
	case len(r.Loop) > 0:
		inLoop := make(map[topo.PortRef]bool, len(r.Loop))
		for _, p := range r.Loop {
			inLoop[p] = true
		}
		// A loop node with edges leaving the loop marks an out-of-loop
		// initiator reachable along that branch.
		outOfLoop := false
		for _, p := range r.Loop {
			for _, q := range a.g.PortNeighbors(p) {
				if !inLoop[q] {
					outOfLoop = true
				}
			}
		}
		if outOfLoop {
			// The DFS already followed those branches; its terminals are
			// in r.Causes. None outside the loop means the branch was not
			// collected.
			for _, c := range r.Causes {
				if !inLoop[c.Port] {
					return shapeOutOfLoop, c, true
				}
			}
			return shapeOutOfLoop, RootCause{}, false
		}
		// The loop port with the strongest flow contention is the initial
		// congestion point. Even when the initiating contention has aged
		// out of the flow telemetry, the cause stays anchored inside the
		// loop rather than at some unrelated walk terminal.
		best, _ := a.heaviest(r.Loop[0], r.Loop)
		return shapeInLoop, a.analyzeFlowContention(best), true
	case len(r.PFCPaths) == 0 && len(r.VictimPausedAt) > 0:
		// Victim paused but every walk ended on a self-edge, not at a
		// terminal: the paused port itself is the initial congestion point.
		r.Causes = append(r.Causes, a.analyzeFlowContention(r.VictimPausedAt[0]))
		fallthrough
	case len(r.PFCPaths) > 0:
		// A host pathology corroborated by the host's own counters
		// outranks a contention terminal: the counters are direct evidence
		// of an endpoint defect, while contention weights are inference —
		// and the differential flow motion a pausing sick host induces
		// upstream can fabricate small contention pairs at secondary
		// terminals. A generic injection is no initiator.
		for _, c := range r.Causes {
			if c.Kind.IsHostSide() && c.Kind != CauseHostInjection {
				return shapeSpreading, c, true
			}
		}
		for _, c := range r.Causes {
			if c.Kind == CauseFlowContention {
				return shapeSpreading, c, true
			}
		}
		return shapeSpreading, RootCause{}, false
	default:
		// The traditional case: contention on the victim's path.
		best, w := a.heaviest(topo.PortRef{}, a.g.FlowPathPorts(r.Victim))
		if w < a.cfg.MinContribution {
			return shapeNoPFC, RootCause{}, false
		}
		return shapeNoPFC, a.analyzeFlowContention(best), true
	}
}

// heaviest returns the port of ports with the largest positive flow
// weight and that weight, or def and 0 when no port carries any.
func (a *analyzer) heaviest(def topo.PortRef, ports []topo.PortRef) (topo.PortRef, float64) {
	best, bestW := def, 0.0
	for _, p := range ports {
		if w := a.g.MaxPortFlowWeight(p); w > bestW {
			best, bestW = p, w
		}
	}
	return best, bestW
}

// hostPauser reports whether the port faces a host whose counter
// snapshot shows it asserting PFC toward the fabric. An incast target
// never pauses (the switch buffer does), so this cleanly separates a
// sick endpoint from ordinary receiver-side contention.
func (a *analyzer) hostPauser(p topo.PortRef) bool {
	// Hand-built graphs in tests may reference ports the topology never
	// wired; an unresolvable port cannot face a host.
	if int(p.Node) < 0 || int(p.Node) >= len(a.t.Nodes) {
		return false
	}
	if n := a.t.Node(p.Node); n == nil || p.Port < 0 || p.Port >= len(n.Ports) {
		return false
	}
	if !a.t.IsHostFacing(p.Node, p.Port) {
		return false
	}
	peer, _ := a.t.PeerOf(p.Node, p.Port)
	h := a.g.Hosts[peer]
	return h != nil && h.Report.PauseTx > 0
}

// promoteCause moves (or inserts) the cause to the front of the list.
func (a *analyzer) promoteCause(c RootCause) {
	out := []RootCause{c}
	for _, o := range a.rep.Causes {
		if o.Port != c.Port {
			out = append(out, o)
		}
	}
	a.rep.Causes = out
}
