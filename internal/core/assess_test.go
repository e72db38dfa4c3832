package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hawkeye/internal/cluster"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/provenance"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

// stormSystem runs the fat-tree PFC-storm scenario over background
// traffic to its horizon, as the reproduction's trial does: thousands
// of complaints over a few dozen report sets.
func stormSystem(t *testing.T) *System {
	t.Helper()
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cluster.DefaultConfig(ft.Topology)
	ccfg.Seed = 1000
	ccfg.Host.Agent.RTTFactor = 2 // the reproduction's trigger threshold
	cl := cluster.New(ft.Topology, topo.ComputeRouting(ft.Topology), ccfg)
	sys, err := Install(cl, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	gt := workload.BuildStorm(cl, ft, workload.DefaultParams(sys.Cfg.Telemetry.EpochSize()))
	bg := &workload.Background{Load: 0.03, CDF: workload.PaperCDF(workload.DefaultScaleDivisor), Stop: gt.AnomalyAt + 8*sim.Millisecond}
	bg.Install(cl, sim.NewRand(1000^0xBEEF))
	cl.Run(gt.AnomalyAt + 15*sim.Millisecond)
	return sys
}

// reportSet names a session's report set by the identity of its reports.
func reportSet(s *Session) string {
	reps := make([]*telemetry.Report, 0, len(s.Reports))
	for _, r := range s.Reports {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Switch < reps[j].Switch })
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "%p ", r)
	}
	return b.String()
}

// TestAssessorMatchesOneShot checks the memoized pass against the
// one-shot assembly: every DiagnoseAll verdict, graph and coverage equal
// a fresh core.Assess of the same evidence.
func TestAssessorMatchesOneShot(t *testing.T) {
	sys := stormSystem(t)
	results := sys.DiagnoseAll()
	v := wire.NewValidator(sys.Cl.Topo)
	sets := make(map[string]bool)
	for i, r := range results {
		s := sys.sessions[r.Trigger.DiagID]
		sets[reportSet(s)] = true
		g, d := Assess(sys.evidence(s, v))
		if got, want := r.Graph.String(), g.String(); got != want {
			t.Fatalf("result %d: memoized graph differs from one-shot:\n%s\nwant:\n%s", i, got, want)
		}
		if !reflect.DeepEqual(r.Graph.Coverage, g.Coverage) {
			t.Fatalf("result %d: coverage %+v, one-shot %+v", i, *r.Graph.Coverage, *g.Coverage)
		}
		if !reflect.DeepEqual(r.Diagnosis, d) {
			t.Fatalf("result %d: verdict differs from one-shot:\n%v\nwant:\n%v", i, r.Diagnosis, d)
		}
	}
	if len(sets) >= len(results) {
		t.Fatalf("%d sessions over %d report sets: nothing to share", len(results), len(sets))
	}
}

// TestAssessorSharesOneGraphPerReportSet: sessions with the same report
// set share one build, and no build serves two sets.
func TestAssessorSharesOneGraphPerReportSet(t *testing.T) {
	sys := stormSystem(t)
	results := sys.DiagnoseAll()
	setOf := make(map[uintptr]string) // Ports map -> report set
	mapOf := make(map[string]uintptr) // report set -> Ports map
	for i, r := range results {
		set := reportSet(sys.sessions[r.Trigger.DiagID])
		p := reflect.ValueOf(r.Graph.Ports).Pointer()
		if prev, ok := setOf[p]; ok && prev != set {
			t.Fatalf("result %d: one graph serves two report sets", i)
		}
		if prev, ok := mapOf[set]; ok && prev != p {
			t.Fatalf("result %d: report set built twice", i)
		}
		setOf[p], mapOf[set] = set, p
	}
	t.Logf("%d sessions, %d report sets, %d graphs", len(results), len(mapOf), len(setOf))
	if len(setOf) != len(mapOf) || len(mapOf) >= len(results) {
		t.Fatalf("%d graphs for %d report sets over %d sessions", len(setOf), len(mapOf), len(results))
	}
}

// TestAssessorForksPerComplaint runs two complaints with different host
// evidence and admission tallies through one Assessor over one report
// set: each verdict is its one-shot verdict, and the second complaint
// leaves the first one's graph as it was.
func TestAssessorForksPerComplaint(t *testing.T) {
	sys := stormSystem(t)
	sys.correlate()
	var sess []*Session
	for _, s := range sys.sessions {
		if len(s.Reports) >= 2 && len(s.HostReports) >= 2 {
			sess = append(sess, s)
		}
	}
	sort.Slice(sess, func(i, j int) bool { return sess[i].Trigger.DiagID < sess[j].Trigger.DiagID })
	if len(sess) < 2 {
		t.Fatalf("%d sessions with switch and host reports, want 2", len(sess))
	}
	v := wire.NewValidator(sys.Cl.Topo)
	ev1 := sys.evidence(sess[0], v)
	ev2 := sys.evidence(sess[1], v)
	// Same report set, other order; split host evidence; other tallies.
	ev2.Reports = make([]*telemetry.Report, len(ev1.Reports))
	for i, r := range ev1.Reports {
		ev2.Reports[len(ev1.Reports)-1-i] = r
	}
	sw := ev1.Reports[0].Switch
	half := len(ev1.Hosts) / 2
	ev2.Hosts, ev1.Hosts = ev1.Hosts[half:], ev1.Hosts[:half]
	ev1.Admission = Admission{Rejected: map[topo.NodeID]int{sw: 1, -1: 2}, Clamped: 3}
	ev2.Admission = Admission{HostRejected: map[topo.NodeID]int{ev2.Hosts[0].Host: 1}, Clamped: 1}

	var a Assessor
	g1, d1 := a.Assess(ev1)
	want1, wantD1 := Assess(ev1)
	g2, d2 := a.Assess(ev2)
	want2, wantD2 := Assess(ev2)
	if reflect.ValueOf(g1.Ports).Pointer() != reflect.ValueOf(g2.Ports).Pointer() {
		t.Fatal("two complaints over one report set built twice")
	}
	// Both forks are checked after the second complaint ran, so the
	// first one's Coverage and Hosts are checked as the second left them.
	for i, c := range []struct {
		g, want  *provenance.Graph
		d, wantD *diagnosis.Report
	}{{g1, want1, d1, wantD1}, {g2, want2, d2, wantD2}} {
		if c.g.String() != c.want.String() {
			t.Fatalf("complaint %d: graph differs from one-shot:\n%s\nwant:\n%s", i+1, c.g, c.want)
		}
		if !reflect.DeepEqual(c.g.Coverage, c.want.Coverage) || !reflect.DeepEqual(c.g.Hosts, c.want.Hosts) {
			t.Fatalf("complaint %d: coverage %+v, one-shot %+v", i+1, *c.g.Coverage, *c.want.Coverage)
		}
		if !reflect.DeepEqual(c.d, c.wantD) {
			t.Fatalf("complaint %d: verdict differs from one-shot:\n%v\nwant:\n%v", i+1, c.d, c.wantD)
		}
	}
	if reflect.DeepEqual(g1.Coverage, g2.Coverage) {
		t.Fatal("the two complaints' coverage is identical: the test exercises nothing")
	}
}
