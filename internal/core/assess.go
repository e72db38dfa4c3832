package core

import (
	"errors"
	"slices"
	"sort"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/packet"
	"hawkeye/internal/provenance"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// Evidence is everything one verdict is assembled from, whichever
// transport delivered it: the admitted reports, what admission refused
// or repaired on the way in, and the complaint itself.
type Evidence struct {
	Topo *topo.Topology
	Prov provenance.Config
	Diag diagnosis.Config
	// Victim is the complaining flow; Path the switches its complaint
	// declares it crossed (nil when unknown).
	Victim packet.FiveTuple
	Path   []topo.NodeID
	// Reports and Hosts are the admitted switch and host-agent reports,
	// at most one per node, in any order (Assess sorts Reports in place).
	Reports []*telemetry.Report
	Hosts   []*telemetry.HostReport
	Admission
}

// Admission tallies what the wire discipline refused or repaired. A
// rejection counts against the node it names when that ID was credible,
// else against -1.
type Admission struct {
	Rejected     map[topo.NodeID]int
	HostRejected map[topo.NodeID]int
	Clamped      int
}

// AdmitReport runs one decoded switch report through wire admission and
// magnitude clamping, tallying the outcome. It returns the number of
// values clamped, or the rejection.
func (a *Admission) AdmitReport(v *wire.Validator, r *telemetry.Report, lim telemetry.Limits) (int, error) {
	if err := v.CheckReport(r); err != nil {
		a.Rejected = tally(a.Rejected, err)
		return 0, err
	}
	n := telemetry.SanitizeReport(r, lim)
	a.Clamped += n
	return n, nil
}

// AdmitHostReport is AdmitReport for a host-agent counter snapshot.
func (a *Admission) AdmitHostReport(v *wire.Validator, r *telemetry.HostReport, lim telemetry.HostLimits) (int, error) {
	if err := v.CheckHostReport(r); err != nil {
		a.HostRejected = tally(a.HostRejected, err)
		return 0, err
	}
	n := telemetry.SanitizeHostReport(r, lim)
	a.Clamped += n
	return n, nil
}

func tally(m map[topo.NodeID]int, err error) map[topo.NodeID]int {
	id := topo.NodeID(-1)
	var re *wire.ReportError
	if errors.As(err, &re) && re.SwitchKnown {
		id = re.Switch
	}
	if m == nil {
		m = make(map[topo.NodeID]int)
	}
	m[id]++
	return m
}

// Assess assembles the verdict: it builds the provenance graph from the
// admitted reports, folds the admission tallies into its coverage,
// installs the host leaves, declares what the analyzer expected to hear
// from, and diagnoses. Every verdict, in-process or served, is assembled
// here.
//
// The expectations are declared from the complaint alone, the same way
// on every transport: the switches are the declared path, and the hosts
// are the victim's endpoints plus every host hanging off a declared path
// switch (the candidate culprits of a host-caused stall on that path).
// A fleet without host agents therefore grades host-facing verdicts as
// uncorroborated, which is what they are.
//
// Assess is the one-shot form: it builds the graph for this complaint
// alone. An Assessor shares one build across complaints.
func Assess(ev Evidence) (*provenance.Graph, *diagnosis.Report) {
	var a Assessor
	return a.Assess(ev)
}

// Assessor assesses a stream of complaints, building the provenance
// graph once per distinct report set and giving each complaint a fork
// of it (provenance.Graph.Fork). The zero value is ready to use; it is
// not safe for concurrent use.
//
// It remembers exactly one build, keyed on the topology, the provenance
// config and the identity of every report. One entry is enough because
// complaints that share a report set arrive together: in trigger order
// the set changes only when a new collection lands. Pointer identity is
// a safe key because a report is never modified once it reaches the
// analyzer, and the remembered pointers keep their reports alive, so no
// new report can take one of their addresses.
type Assessor struct {
	topo    *topo.Topology
	prov    provenance.Config
	reports []*telemetry.Report
	graph   *provenance.Graph
}

// Assess is the package-level Assess over the remembered build.
func (a *Assessor) Assess(ev Evidence) (*provenance.Graph, *diagnosis.Report) {
	sort.Slice(ev.Reports, func(i, j int) bool { return ev.Reports[i].Switch < ev.Reports[j].Switch })
	g := a.built(ev).Fork()
	cov := g.Coverage
	for sw, n := range ev.Rejected {
		for i := 0; i < n; i++ {
			cov.NoteRejected(sw)
		}
	}
	for id, n := range ev.HostRejected {
		for i := 0; i < n; i++ {
			cov.NoteHostRejected(id)
		}
	}
	cov.Clamped += ev.Clamped
	for _, hr := range ev.Hosts {
		g.AddHostReport(hr, ev.Topo)
	}
	cov.SetExpected(ev.Path)
	cov.SetExpectedHosts(expectedHosts(ev.Topo, ev.Victim, ev.Path))
	return g, diagnosis.Diagnose(ev.Diag, g, ev.Topo, ev.Victim)
}

// built returns the untouched graph for ev's sorted reports, building
// it unless the last build had the same topology, config and reports.
func (a *Assessor) built(ev Evidence) *provenance.Graph {
	if a.graph == nil || a.topo != ev.Topo || a.prov != ev.Prov || !slices.Equal(a.reports, ev.Reports) {
		a.graph = provenance.Build(ev.Prov, ev.Reports, ev.Topo)
		a.topo, a.prov = ev.Topo, ev.Prov
		a.reports = append(a.reports[:0], ev.Reports...)
	}
	return a.graph
}

func expectedHosts(t *topo.Topology, victim packet.FiveTuple, path []topo.NodeID) []topo.NodeID {
	want := make(map[topo.NodeID]bool)
	for _, ip := range []uint32{victim.SrcIP, victim.DstIP} {
		if id, ok := t.HostByIP(ip); ok {
			want[id] = true
		}
	}
	for _, sw := range path {
		for _, p := range t.Node(sw).Ports {
			if t.Node(p.Peer).Kind == topo.KindHost {
				want[p.Peer] = true
			}
		}
	}
	out := make([]topo.NodeID, 0, len(want))
	for id := range want {
		out = append(out, id)
	}
	return out
}

// VictimPath lists the switches on the victim's path as r resolves it,
// ECMP hash and overrides included: the path a complaint declares. It
// is nil when the path cannot be resolved (an unknown endpoint, or a
// routing loop).
func VictimPath(r *topo.Routing, t *topo.Topology, victim packet.FiveTuple) []topo.NodeID {
	src, ok1 := t.HostByIP(victim.SrcIP)
	dst, ok2 := t.HostByIP(victim.DstIP)
	if !ok1 || !ok2 {
		return nil
	}
	refs, err := r.PortPath(src, dst, victim.Hash())
	if err != nil {
		return nil
	}
	var out []topo.NodeID
	for _, ref := range refs {
		if t.Node(ref.Node).Kind == topo.KindSwitch {
			out = append(out, ref.Node)
		}
	}
	return out
}
