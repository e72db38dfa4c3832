// Package provenance builds Hawkeye's heterogeneous wait-for provenance
// graph (§3.5.1, Algorithm 1) from collected telemetry reports: port-level
// edges encode PFC spreading causality, flow-port edges encode how badly
// each flow is paused, and port-flow edges encode each flow's contribution
// to local queue contention.
package provenance

import (
	"fmt"
	"sort"
	"strings"

	"hawkeye/internal/packet"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// Config tunes graph construction.
type Config struct {
	// LinkBandwidth (bps) scales burst-rate classification.
	LinkBandwidth float64
	// EpochSize is the telemetry epoch duration in nanoseconds.
	EpochSizeNS int64
	// BurstRateFrac: a flow whose peak per-epoch arrival rate exceeds
	// this fraction of the link rate is burst-classified.
	BurstRateFrac float64
	// BurstMaxEpochs: burst flows are short — present in at most this
	// many epochs at the congested port.
	BurstMaxEpochs int
	// MaxReplay caps the queue-replay length per port-epoch; larger
	// populations are proportionally subsampled.
	MaxReplay int
	// CongestedQdepthBytes: a port with no paused packets only counts as
	// a congested wait-for target when its average queue depth reaches
	// this bound. Filters trivially non-empty queues (e.g. host-facing
	// ports draining normally) out of the port-level causality.
	CongestedQdepthBytes float64
}

// DefaultConfig sizes burst classification for 100 Gbps links.
func DefaultConfig(linkBps float64, epochNS int64) Config {
	return Config{
		LinkBandwidth:        linkBps,
		EpochSizeNS:          epochNS,
		BurstRateFrac:        0.15,
		BurstMaxEpochs:       3,
		MaxReplay:            20000,
		CongestedQdepthBytes: 8192,
	}
}

// PortInfo aggregates one egress port's telemetry across reported epochs
// plus the live registers from the report's status block. The live
// registers matter under deadlock, where per-packet counters freeze with
// the traffic but pause state and stuck queues persist.
type PortInfo struct {
	Ref       topo.PortRef
	PktCount  uint64
	PausedNum uint64
	QdepthSum uint64
	Bytes     uint64
	PausedNow bool
	// StatusQdepth is the live egress backlog register at snapshot time.
	StatusQdepth float64
	// Epochs counts how many collected epochs carried a record for this
	// port; PausedEpochs how many of those saw it paused. Under telemetry
	// loss these are the per-node evidence mass behind every conclusion
	// drawn from the port.
	Epochs       int
	PausedEpochs int
}

// AvgQdepth is the mean backlog (bytes) packets saw at this port.
func (p *PortInfo) AvgQdepth() float64 {
	if p.PktCount == 0 {
		return 0
	}
	return float64(p.QdepthSum) / float64(p.PktCount)
}

// Qdepth is the congestion magnitude used for edge weights: the larger
// of the per-packet average and the live register.
func (p *PortInfo) Qdepth() float64 {
	if p.StatusQdepth > 0 && p.StatusQdepth > p.AvgQdepth() {
		return p.StatusQdepth
	}
	return p.AvgQdepth()
}

// PausedSeverity quantifies how paused the port is for edge weighting:
// the paused-packet count, or 1 when only the live status says paused.
func (p *PortInfo) PausedSeverity() float64 {
	if p.PausedNum > 0 {
		return float64(p.PausedNum)
	}
	if p.PausedNow {
		return 1
	}
	return 0
}

// FlowInfo aggregates one flow's telemetry at one switch port.
type FlowInfo struct {
	Tuple        packet.FiveTuple
	Port         topo.PortRef
	PktCount     uint64
	PausedNum    uint64
	QdepthSum    uint64
	Bytes        uint64
	ActiveEpochs int
	// PausedEpochs counts the epochs in which the flow saw pause at this
	// port (evidence mass for flow-port edges).
	PausedEpochs int
	PeakRateBps  float64
}

// flowAt identifies a flow at a specific port (flows appear at many
// switches; contention analysis is per port).
type flowAt struct {
	tuple packet.FiveTuple
	port  topo.PortRef
}

// Graph is the heterogeneous wait-for provenance graph.
type Graph struct {
	Cfg Config

	Ports map[topo.PortRef]*PortInfo
	// Flows indexes per-(flow, port) aggregates.
	Flows map[packet.FiveTuple]map[topo.PortRef]*FlowInfo

	// PortEdges: wait-for edges between congested egress ports
	// (Pi waits for downstream Pj to drain).
	PortEdges map[topo.PortRef]map[topo.PortRef]float64
	// FlowPort: flow f waits for paused port P; weight = paused packets.
	FlowPort map[packet.FiveTuple]map[topo.PortRef]float64
	// PortFlow: port P waits for its contending flows; weight = net
	// contention contribution (positive = contributor, negative = victim).
	PortFlow map[topo.PortRef]map[packet.FiveTuple]float64

	// PortEdgeEvidence counts the independent telemetry samples backing
	// each port-level wait-for edge: paused epochs at the source, record
	// epochs at the destination, plus the causality-meter read. An edge
	// with evidence 1 survives on a single register sample — under fault
	// injection that is the difference between a conclusion and a guess.
	PortEdgeEvidence map[topo.PortRef]map[topo.PortRef]int

	// Hosts holds the host leaf nodes: admitted host-agent counter
	// snapshots, keyed by host. The pause-propagation walk consults them
	// when it terminates at a host-facing port — the endpoint evidence
	// that separates a host-caused pause from an in-network one.
	Hosts map[topo.NodeID]*HostInfo

	// Coverage describes how much of the wanted telemetry this graph was
	// actually built from. Always non-nil after Build.
	Coverage *Coverage

	// contention holds the per-epoch flow populations per port, the raw
	// material for queue replay (kept epoch-separated on purpose).
	contention map[topo.PortRef][]epochFlows
}

// HostInfo is one host leaf node of the wait-for graph: the freshest
// admitted host-agent counter snapshot for the host.
type HostInfo struct {
	Host   topo.NodeID
	Report telemetry.HostReport
}

// BufferFrac is the RX-buffer occupancy as a fraction of capacity (0
// when the host runs no bounded buffer).
func (h *HostInfo) BufferFrac() float64 {
	if h.Report.RxBufferCap == 0 {
		return 0
	}
	return float64(h.Report.RxBufferBytes) / float64(h.Report.RxBufferCap)
}

// Coverage quantifies the telemetry the graph was built from versus what
// the analyzer wanted, so diagnosis can say how much evidence is missing
// instead of silently concluding from partial inputs.
type Coverage struct {
	// Collected counts the reports the graph ingested; Switches marks
	// which switches they came from.
	Collected int
	Switches  map[topo.NodeID]bool
	// EpochsCollected totals the epoch payloads across those reports
	// (epoch-ring loss shows up here, not in Collected).
	EpochsCollected int
	// EpochsBySwitch breaks EpochsCollected down per reporting switch, so
	// diagnosis can tell whether a specific conclusion rests on an
	// epoch-incomplete report (the switch lost epochs its peers kept).
	EpochsBySwitch map[topo.NodeID]int
	// Expected is how many switches the analyzer wanted reports from; 0
	// means unknown (e.g. analyzd ingests externally chosen report sets).
	Expected int
	// MissingSwitches lists expected switches that never reported, sorted.
	MissingSwitches []topo.NodeID
	// Rejected counts reports that failed admission validation and never
	// entered the graph; RejectedBySwitch attributes them where the switch
	// ID itself was credible. A switch that is present here but absent
	// from Switches was heard from and disbelieved — a different failure
	// from never reporting at all.
	Rejected         int
	RejectedBySwitch map[topo.NodeID]int
	// Clamped counts field values admission sanitization had to pull back
	// into physical plausibility; Suspect counts records Build itself
	// skipped because they referenced ports outside the topology. Either
	// being non-zero means some accepted evidence was corrupt.
	Clamped int
	Suspect int

	// Host-agent channel coverage, mirroring the switch fields: which
	// hosts the analyzer wanted counter snapshots from, which delivered,
	// and how many host reports failed admission. Missing or disbelieved
	// host telemetry is exactly the blind spot that turns a host-caused
	// anomaly into a confident-looking network verdict, so diagnosis
	// reads these when a conclusion implicates a host.
	HostsExpected  int
	Hosts          map[topo.NodeID]bool
	MissingHosts   []topo.NodeID
	HostsRejected  int
	RejectedByHost map[topo.NodeID]int
}

// NoteRejected records a report that failed admission validation. Pass
// sw < 0 when the report could not be credibly attributed to any switch.
func (c *Coverage) NoteRejected(sw topo.NodeID) {
	c.Rejected++
	if sw >= 0 {
		if c.RejectedBySwitch == nil {
			c.RejectedBySwitch = make(map[topo.NodeID]int)
		}
		c.RejectedBySwitch[sw]++
	}
}

// NoteHostRejected records a host-agent report that failed admission.
// Pass id < 0 when the report could not be credibly attributed.
func (c *Coverage) NoteHostRejected(id topo.NodeID) {
	c.HostsRejected++
	if id >= 0 {
		if c.RejectedByHost == nil {
			c.RejectedByHost = make(map[topo.NodeID]int)
		}
		c.RejectedByHost[id]++
	}
}

// SetExpectedHosts declares the host set the analyzer queried for
// counter snapshots (the victim's endpoints and the hosts hanging off
// its path edge switches) and computes the missing set.
func (c *Coverage) SetExpectedHosts(expected []topo.NodeID) {
	c.HostsExpected = len(expected)
	c.MissingHosts = nil
	for _, id := range expected {
		if !c.Hosts[id] {
			c.MissingHosts = append(c.MissingHosts, id)
		}
	}
	sort.Slice(c.MissingHosts, func(i, j int) bool {
		return c.MissingHosts[i] < c.MissingHosts[j]
	})
}

// HostFrac is the fraction of expected hosts that delivered an admitted
// snapshot (1 when the expectation is unknown).
func (c *Coverage) HostFrac() float64 {
	if c.HostsExpected == 0 {
		return 1
	}
	return float64(c.HostsExpected-len(c.MissingHosts)) / float64(c.HostsExpected)
}

// SetExpected declares the switch set the analyzer wanted telemetry from
// (typically the victim's path) and computes the missing set.
func (c *Coverage) SetExpected(expected []topo.NodeID) {
	c.Expected = len(expected)
	c.MissingSwitches = nil
	for _, id := range expected {
		if !c.Switches[id] {
			c.MissingSwitches = append(c.MissingSwitches, id)
		}
	}
	sort.Slice(c.MissingSwitches, func(i, j int) bool {
		return c.MissingSwitches[i] < c.MissingSwitches[j]
	})
}

// Frac is the fraction of expected switches that reported (1 when the
// expectation is unknown: no evidence of absence).
func (c *Coverage) Frac() float64 {
	if c.Expected == 0 {
		return 1
	}
	return float64(c.Expected-len(c.MissingSwitches)) / float64(c.Expected)
}

// AvgEpochs is the mean epoch payloads per collected report.
func (c *Coverage) AvgEpochs() float64 {
	if c.Collected == 0 {
		return 0
	}
	return float64(c.EpochsCollected) / float64(c.Collected)
}

// MaxSwitchEpochs returns the largest per-switch epoch count — the
// best-covered report, against which epoch-incomplete ones stand out.
func (c *Coverage) MaxSwitchEpochs() int {
	max := 0
	for _, n := range c.EpochsBySwitch {
		if n > max {
			max = n
		}
	}
	return max
}

// SwitchEpochs returns how many epoch payloads switch id contributed.
func (c *Coverage) SwitchEpochs(id topo.NodeID) int { return c.EpochsBySwitch[id] }

// NewGraph returns an empty graph.
func NewGraph(cfg Config) *Graph {
	return &Graph{
		Cfg:              cfg,
		Ports:            make(map[topo.PortRef]*PortInfo),
		Flows:            make(map[packet.FiveTuple]map[topo.PortRef]*FlowInfo),
		PortEdges:        make(map[topo.PortRef]map[topo.PortRef]float64),
		FlowPort:         make(map[packet.FiveTuple]map[topo.PortRef]float64),
		PortFlow:         make(map[topo.PortRef]map[packet.FiveTuple]float64),
		PortEdgeEvidence: make(map[topo.PortRef]map[topo.PortRef]int),
		Hosts:            make(map[topo.NodeID]*HostInfo),
		Coverage: &Coverage{
			Switches:       make(map[topo.NodeID]bool),
			EpochsBySwitch: make(map[topo.NodeID]int),
			Hosts:          make(map[topo.NodeID]bool),
		},
	}
}

// Fork returns a shallow copy of g for one complaint. The fork shares
// the report-derived structure with g: Ports, Flows, the edge maps,
// PortEdgeEvidence, the contention populations and the Coverage's
// Switches and EpochsBySwitch. What a complaint writes is its own: the
// Hosts map, and a Coverage copy with its own Hosts map and nil
// per-node rejection and missing sets. Fork the graph Build returned,
// before any complaint touched it, and every fork starts from the same
// evidence.
//
// The rule that makes this safe: nothing writes the shared maps, or the
// PortInfo and FlowInfo they hold, after Build returns. Diagnosis,
// refinement, scoring and rendering only read them.
func (g *Graph) Fork() *Graph {
	f := *g
	cov := *g.Coverage
	cov.Hosts = make(map[topo.NodeID]bool)
	cov.RejectedBySwitch, cov.RejectedByHost = nil, nil
	cov.MissingSwitches, cov.MissingHosts = nil, nil
	f.Coverage = &cov
	f.Hosts = make(map[topo.NodeID]*HostInfo)
	return &f
}

// AddHostReport ingests one admitted host-agent snapshot as a host leaf
// node. Out-of-topology or non-host records are skipped and counted
// Suspect, mirroring Build's own-invariant discipline; when the same
// host reports twice the freshest snapshot wins.
func (g *Graph) AddHostReport(hr *telemetry.HostReport, t *topo.Topology) {
	if int(hr.Host) < 0 || int(hr.Host) >= len(t.Nodes) || t.Nodes[hr.Host].Kind != topo.KindHost {
		g.Coverage.Suspect++
		return
	}
	cur := g.Hosts[hr.Host]
	if cur == nil || hr.Taken >= cur.Report.Taken {
		g.Hosts[hr.Host] = &HostInfo{Host: hr.Host, Report: *hr}
	}
	g.Coverage.Hosts[hr.Host] = true
}

// EdgeEvidence returns the telemetry-sample count backing the a -> b
// port edge (0 when the edge does not exist).
func (g *Graph) EdgeEvidence(a, b topo.PortRef) int { return g.PortEdgeEvidence[a][b] }

// PortNeighbors returns the downstream congested ports p waits for,
// sorted for determinism.
func (g *Graph) PortNeighbors(p topo.PortRef) []topo.PortRef {
	out := make([]topo.PortRef, 0, len(g.PortEdges[p]))
	for q := range g.PortEdges[p] {
		out = append(out, q)
	}
	sortPortRefs(out)
	return out
}

// VictimPorts returns the ports where flow f is recorded as PFC-paused,
// sorted by descending weight.
func (g *Graph) VictimPorts(f packet.FiveTuple) []topo.PortRef {
	var out []topo.PortRef
	for p, w := range g.FlowPort[f] {
		if w > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := g.FlowPort[f][out[i]], g.FlowPort[f][out[j]]
		if wi != wj {
			return wi > wj
		}
		return lessPortRef(out[i], out[j])
	})
	return out
}

// PausedPorts returns every port that is paused (by packet counters or
// live status), sorted. Diagnosis falls back to these walk roots when a
// deadlock froze the victim's own telemetry.
func (g *Graph) PausedPorts() []topo.PortRef {
	var out []topo.PortRef
	for p, info := range g.Ports {
		if info.PausedSeverity() > 0 {
			out = append(out, p)
		}
	}
	sortPortRefs(out)
	return out
}

// FlowPathPorts returns every port where flow f left telemetry (its
// observed path), sorted for determinism.
func (g *Graph) FlowPathPorts(f packet.FiveTuple) []topo.PortRef {
	var out []topo.PortRef
	for p := range g.Flows[f] {
		out = append(out, p)
	}
	sortPortRefs(out)
	return out
}

// Contributors returns the flows with positive port-flow weight at p,
// descending.
func (g *Graph) Contributors(p topo.PortRef) []packet.FiveTuple {
	var out []packet.FiveTuple
	for f, w := range g.PortFlow[p] {
		if w > 0 {
			out = append(out, f)
		}
	}
	packet.SortByString(out)
	sort.SliceStable(out, func(i, j int) bool { return g.PortFlow[p][out[i]] > g.PortFlow[p][out[j]] })
	return out
}

// MaxPortFlowWeight returns the largest port-flow weight at p (0 when the
// port has no flow edges).
func (g *Graph) MaxPortFlowWeight(p topo.PortRef) float64 {
	max := 0.0
	for _, w := range g.PortFlow[p] {
		if w > max {
			max = w
		}
	}
	return max
}

// IsBurstFlow applies the burst-flow(f) predicate from Table 2 at port p:
// high peak arrival rate concentrated in few epochs.
func (g *Graph) IsBurstFlow(f packet.FiveTuple, p topo.PortRef) bool {
	fi := g.Flows[f][p]
	if fi == nil {
		return false
	}
	return fi.PeakRateBps >= g.Cfg.BurstRateFrac*g.Cfg.LinkBandwidth &&
		fi.ActiveEpochs <= g.Cfg.BurstMaxEpochs
}

// String renders the graph in a compact human-readable form (case
// studies, Fig. 12).
func (g *Graph) String() string {
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

func sortPortRefs(ps []topo.PortRef) {
	sort.Slice(ps, func(i, j int) bool { return lessPortRef(ps[i], ps[j]) })
}

func lessPortRef(a, b topo.PortRef) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Port < b.Port
}

// reportView pre-indexes a report for graph construction.
type reportView struct {
	rep *telemetry.Report
	// meter aggregated across epochs: [in][out] -> bytes.
	meter map[int]map[int]uint64
}

// Build runs Algorithm 1 over the collected reports.
func Build(cfg Config, reports []*telemetry.Report, t *topo.Topology) *Graph {
	g := NewGraph(cfg)
	views := make(map[topo.NodeID]*reportView, len(reports))
	for _, rep := range reports {
		// Reports normally arrive through wire.Validator, but Build must
		// hold its own invariants: an out-of-range node or port index here
		// would flow into PeerOf and panic the analyzer. Skip the record,
		// count it, and let diagnosis discount the result.
		if int(rep.Switch) < 0 || int(rep.Switch) >= len(t.Nodes) {
			g.Coverage.Suspect++
			continue
		}
		nports := len(t.Nodes[rep.Switch].Ports)
		portOK := func(p int) bool {
			if p < 0 || p >= nports {
				g.Coverage.Suspect++
				return false
			}
			return true
		}
		v := &reportView{rep: rep, meter: make(map[int]map[int]uint64)}
		views[rep.Switch] = v
		g.Coverage.Collected++
		g.Coverage.Switches[rep.Switch] = true
		g.Coverage.EpochsCollected += len(rep.Epochs)
		g.Coverage.EpochsBySwitch[rep.Switch] += len(rep.Epochs)
		for _, m := range rep.Meter {
			if !portOK(m.InPort) || !portOK(m.OutPort) {
				continue
			}
			row, ok := v.meter[m.InPort]
			if !ok {
				row = make(map[int]uint64)
				v.meter[m.InPort] = row
			}
			row[m.OutPort] += m.Bytes
		}
		for ei := range rep.Epochs {
			ep := &rep.Epochs[ei]
			for _, pr := range ep.Ports {
				if !portOK(pr.Port) {
					continue
				}
				ref := topo.PortRef{Node: rep.Switch, Port: pr.Port}
				info := g.Ports[ref]
				if info == nil {
					info = &PortInfo{Ref: ref}
					g.Ports[ref] = info
				}
				info.PktCount += uint64(pr.PktCount)
				info.PausedNum += uint64(pr.PausedCount)
				info.QdepthSum += pr.QdepthSum
				info.Bytes += pr.Bytes
				info.Epochs++
				if pr.PausedCount > 0 {
					info.PausedEpochs++
				}
			}
			for _, fr := range ep.Flows {
				if !portOK(fr.OutPort) {
					continue
				}
				ref := topo.PortRef{Node: rep.Switch, Port: fr.OutPort}
				byPort, ok := g.Flows[fr.Tuple]
				if !ok {
					byPort = make(map[topo.PortRef]*FlowInfo)
					g.Flows[fr.Tuple] = byPort
				}
				fi := byPort[ref]
				if fi == nil {
					fi = &FlowInfo{Tuple: fr.Tuple, Port: ref}
					byPort[ref] = fi
				}
				fi.PktCount += uint64(fr.PktCount)
				fi.PausedNum += uint64(fr.PausedCount)
				fi.QdepthSum += fr.QdepthSum
				fi.Bytes += fr.Bytes
				fi.ActiveEpochs++
				if fr.PausedCount > 0 {
					fi.PausedEpochs++
				}
				if cfg.EpochSizeNS > 0 {
					rate := float64(fr.Bytes) * 8 / (float64(cfg.EpochSizeNS) / 1e9)
					if rate > fi.PeakRateBps {
						fi.PeakRateBps = rate
					}
				}
			}
		}
		for _, st := range rep.Status {
			if st.PausedUntil <= rep.Taken && st.QdepthBytes == 0 {
				continue
			}
			if !portOK(st.Port) {
				continue
			}
			ref := topo.PortRef{Node: rep.Switch, Port: st.Port}
			info := g.Ports[ref]
			if info == nil {
				info = &PortInfo{Ref: ref}
				g.Ports[ref] = info
			}
			info.PausedNow = st.PausedUntil > rep.Taken
			info.StatusQdepth = float64(st.QdepthBytes)
		}
	}

	g.contention = collectContention(reports)
	g.buildPortEdges(views, t)
	g.buildFlowPortEdges()
	g.buildPortFlowEdges()
	return g
}

// buildPortEdges adds Pi -> Pj wait-for edges: Pi is a paused egress
// port; Pj is an egress port on Pi's peer switch that carried traffic
// arriving from Pi and is congested (Algorithm 1 lines 6-9).
func (g *Graph) buildPortEdges(views map[topo.NodeID]*reportView, t *topo.Topology) {
	for ref, info := range g.Ports {
		if info.PausedSeverity() == 0 {
			continue
		}
		peer, peerIn := t.PeerOf(ref.Node, ref.Port)
		pv, ok := views[peer]
		if !ok {
			continue // peer is a host or was not collected
		}
		row := pv.meter[peerIn]
		var sum uint64
		for _, b := range row {
			sum += b
		}
		if sum == 0 {
			continue
		}
		for out, bytes := range row {
			dst := topo.PortRef{Node: peer, Port: out}
			dstInfo := g.Ports[dst]
			if dstInfo == nil {
				continue
			}
			// Only congested ports are wait-for targets: paused, or
			// holding a substantial backlog.
			if dstInfo.PausedSeverity() == 0 && dstInfo.Qdepth() < g.Cfg.CongestedQdepthBytes {
				continue
			}
			// A paused destination can have an empty queue (host PFC
			// injection at a port whose upstream feeders are already
			// stuck): keep a floor so the wait-for edge survives.
			q := dstInfo.Qdepth()
			if q == 0 {
				q = 1
			}
			weight := info.PausedSeverity() * (float64(bytes) / float64(sum)) * q
			if weight <= 0 {
				continue
			}
			if g.PortEdges[ref] == nil {
				g.PortEdges[ref] = make(map[topo.PortRef]float64)
				g.PortEdgeEvidence[ref] = make(map[topo.PortRef]int)
			}
			g.PortEdges[ref][dst] = weight
			// Evidence mass: source paused epochs + destination record
			// epochs + the meter read itself. Live-status-only ports
			// contribute nothing beyond the meter, leaving the edge at 1 —
			// real, but hanging off a single register sample.
			g.PortEdgeEvidence[ref][dst] = info.PausedEpochs + dstInfo.Epochs + 1
		}
	}
}

// buildFlowPortEdges adds f -> P edges weighted by paused packet counts
// (Algorithm 1 lines 12-14).
func (g *Graph) buildFlowPortEdges() {
	for tuple, byPort := range g.Flows {
		for ref, fi := range byPort {
			if fi.PausedNum == 0 {
				continue
			}
			if g.FlowPort[tuple] == nil {
				g.FlowPort[tuple] = make(map[topo.PortRef]float64)
			}
			g.FlowPort[tuple][ref] = float64(fi.PausedNum)
		}
	}
}
