package diagnosis

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hawkeye/internal/packet"
	"hawkeye/internal/provenance"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// hostPortOf returns switch sw's host-facing port in testTopo.
func hostPortOf(t *testing.T, tp *topo.Topology, sw int) topo.PortRef {
	t.Helper()
	for pi := range tp.Node(topo.NodeID(sw)).Ports {
		if tp.IsHostFacing(topo.NodeID(sw), pi) {
			return ref(sw, pi)
		}
	}
	t.Fatalf("switch %d has no host port", sw)
	return topo.PortRef{}
}

// setHost installs the admitted counter snapshot of the host behind p.
func setHost(g *provenance.Graph, tp *topo.Topology, p topo.PortRef, rep telemetry.HostReport) {
	h, _ := tp.PeerOf(p.Node, p.Port)
	g.Hosts[h] = &provenance.HostInfo{Host: h, Report: rep}
}

// TestTable2Cells drives every cell of table2 the walk can reach through
// Diagnose, and fails when a reachable cell has no case.
func TestTable2Cells(t *testing.T) {
	tp := testTopo(t)
	victim, b1 := flowT(1), flowT(2)
	// pauseStorm is a host pausing with an empty RX buffer.
	pauseStorm := telemetry.HostReport{PauseTx: 50, RxBufferCap: 1 << 20}
	type cell struct {
		s   shape
		col column
	}
	// The in-loop rule always yields an initiator: the heaviest loop
	// port, or the loop's first port when none carries flow weight.
	unreachable := map[cell]bool{{shapeInLoop, colNotFound}: true}
	cases := []struct {
		name  string
		cell  cell
		build func(g *provenance.Graph)
		want  AnomalyType
		// causes is the expected cause ports, initiator first.
		causes []topo.PortRef
		kind   CauseKind
	}{
		{"no-pfc/contention", cell{shapeNoPFC, colContention}, func(g *provenance.Graph) {
			addPort(g, ref(0, 0), 0)
			addPortFlow(g, ref(0, 0), b1, 20)
			addPortFlow(g, ref(0, 0), victim, -20)
		}, TypeNormalContention, []topo.PortRef{ref(0, 0)}, CauseFlowContention},
		{"no-pfc/host-side", cell{shapeNoPFC, colHostSide}, func(g *provenance.Graph) {
			// The heaviest path port faces a host that pauses: no cause
			// is recorded.
			hp := hostPortOf(t, tp, 1)
			addPort(g, hp, 0)
			addPortFlow(g, hp, b1, 20)
			addPortFlow(g, hp, victim, -20)
			setHost(g, tp, hp, pauseStorm)
		}, TypeNone, nil, 0},
		{"no-pfc/not-found", cell{shapeNoPFC, colNotFound}, func(g *provenance.Graph) {
			addPort(g, ref(0, 0), 0)
			addPortFlow(g, ref(0, 0), b1, 1) // below MinContribution
			addPortFlow(g, ref(0, 0), victim, -1)
		}, TypeNone, nil, 0},
		{"spreading/contention", cell{shapeSpreading, colContention}, func(g *provenance.Graph) {
			addPort(g, ref(0, 0), 5)
			addFlowPort(g, victim, ref(0, 0), 5)
			addPortEdge(g, ref(0, 0), ref(1, 1), 100)
			addPortFlow(g, ref(1, 1), b1, 40)
		}, TypePFCContention, []topo.PortRef{ref(1, 1)}, CauseFlowContention},
		{"spreading/host-side", cell{shapeSpreading, colHostSide}, func(g *provenance.Graph) {
			// A host-corroborated pathology outranks the contention
			// terminal the walk reached first.
			hp := hostPortOf(t, tp, 2)
			addPort(g, ref(0, 0), 5)
			addFlowPort(g, victim, ref(0, 0), 5)
			addPortEdge(g, ref(0, 0), ref(1, 1), 100)
			addPortEdge(g, ref(0, 0), hp, 40)
			addPortFlow(g, ref(1, 1), b1, 40)
			setHost(g, tp, hp, pauseStorm)
		}, TypePFCStorm, []topo.PortRef{hostPortOf(t, tp, 2), ref(1, 1)}, CauseHostPauseStorm},
		{"spreading/not-found", cell{shapeSpreading, colNotFound}, func(g *provenance.Graph) {
			// Two generic injections: neither is promoted, so the walk
			// order stands.
			addPort(g, ref(0, 0), 5)
			addFlowPort(g, victim, ref(0, 0), 5)
			addPortEdge(g, ref(0, 0), hostPortOf(t, tp, 1), 40)
			addPortEdge(g, ref(0, 0), hostPortOf(t, tp, 2), 100)
		}, TypePFCStorm, []topo.PortRef{hostPortOf(t, tp, 1), hostPortOf(t, tp, 2)}, CauseHostInjection},
		{"victim-port/contention", cell{shapeSpreading, colContention}, func(g *provenance.Graph) {
			// The victim is paused but no walk leaves its hop: the paused
			// port is the initial congestion point.
			addPort(g, ref(0, 0), 5)
			addFlowPort(g, victim, ref(0, 0), 5)
			addPortEdge(g, ref(0, 0), ref(0, 0), 10)
			addPortFlow(g, ref(0, 0), b1, 30)
		}, TypePFCContention, []topo.PortRef{ref(0, 0)}, CauseFlowContention},
		{"victim-port/not-found", cell{shapeSpreading, colNotFound}, func(g *provenance.Graph) {
			addPort(g, ref(0, 0), 5)
			addFlowPort(g, victim, ref(0, 0), 5)
			addPortEdge(g, ref(0, 0), ref(0, 0), 10)
		}, TypePFCStorm, []topo.PortRef{ref(0, 0)}, CauseHostInjection},
		{"in-loop/contention", cell{shapeInLoop, colContention}, func(g *provenance.Graph) {
			loop := buildLoop(g)
			addFlowPort(g, victim, loop[0], 5)
			addPortFlow(g, loop[2], b1, 30)
		}, TypeInLoopDeadlock, []topo.PortRef{ref(2, 0)}, CauseFlowContention},
		{"in-loop/host-side", cell{shapeInLoop, colHostSide}, func(g *provenance.Graph) {
			// No loop port carries flow weight: the first loop port is the
			// initiator, and with no contributors it is an injection.
			loop := buildLoop(g)
			addFlowPort(g, victim, loop[0], 5)
		}, TypeInLoopDeadlock, []topo.PortRef{ref(0, 0)}, CauseHostInjection},
		{"out-of-loop/contention", cell{shapeOutOfLoop, colContention}, func(g *provenance.Graph) {
			loop := buildLoop(g)
			addPort(g, ref(1, 2), 2)
			addPortEdge(g, loop[0], ref(1, 2), 40)
			addFlowPort(g, victim, loop[0], 5)
			addPortFlow(g, ref(1, 2), b1, 25)
		}, TypeOutLoopDeadlockContention, []topo.PortRef{ref(1, 2)}, CauseFlowContention},
		{"out-of-loop/host-side", cell{shapeOutOfLoop, colHostSide}, func(g *provenance.Graph) {
			loop := buildLoop(g)
			addPort(g, ref(1, 2), 2)
			addPortEdge(g, loop[0], ref(1, 2), 40)
			addFlowPort(g, victim, loop[0], 5)
		}, TypeOutLoopDeadlockInjection, []topo.PortRef{ref(1, 2)}, CauseHostInjection},
		{"out-of-loop/not-found", cell{shapeOutOfLoop, colNotFound}, func(g *provenance.Graph) {
			// The branch leads back into the loop, so the walk ends at no
			// terminal outside it: the branch was not collected.
			loop := buildLoop(g)
			addPortEdge(g, loop[0], ref(1, 2), 40)
			addPortEdge(g, ref(1, 2), loop[2], 40)
			addFlowPort(g, victim, loop[0], 5)
		}, TypeOutLoopDeadlockInjection, nil, 0},
	}
	covered := map[cell]bool{}
	for _, c := range cases {
		covered[c.cell] = true
		t.Run(c.name, func(t *testing.T) {
			if table2[c.cell.s][c.cell.col] != c.want {
				t.Fatalf("table2 cell = %v, case wants %v", table2[c.cell.s][c.cell.col], c.want)
			}
			g := emptyGraph()
			c.build(g)
			rep := Diagnose(DefaultConfig(), g, tp, victim)
			if rep.Type != c.want {
				t.Fatalf("type = %v, want %v\n%v", rep.Type, c.want, rep)
			}
			var ports []topo.PortRef
			for _, rc := range rep.Causes {
				ports = append(ports, rc.Port)
			}
			if !reflect.DeepEqual(ports, c.causes) {
				t.Fatalf("cause ports = %v, want %v\n%v", ports, c.causes, rep)
			}
			if len(c.causes) > 0 && rep.PrimaryCause().Kind != c.kind {
				t.Fatalf("initiator kind = %v, want %v", rep.PrimaryCause().Kind, c.kind)
			}
		})
	}
	for s := shape(0); s < numShapes; s++ {
		for col := column(0); col < numColumns; col++ {
			if k := (cell{s, col}); !covered[k] && !unreachable[k] {
				t.Errorf("table2 cell %s / %s has no case", shapeNames[s], columnNames[col])
			}
		}
	}
}

// TestConfidencePenaltyRows fires each penalty row alone against the
// no-gap fixture (score exactly 1) and checks its note and its factor to
// the bit. A row without a case fails the test.
func TestConfidencePenaltyRows(t *testing.T) {
	tp := testTopo(t)
	full := []topo.NodeID{0, 1}
	// base is the no-gap fixture: two switches fully covered, strong
	// edge evidence, contention at sw1.P1.
	base := func() *provenance.Graph {
		g := contentionGraph()
		setEvidence(g, ref(0, 0), ref(1, 1), 6)
		setCoverage(g, full, 4, full)
		return g
	}
	// storm moves the terminal to sw1's host port, with nothing behind it.
	storm := func() *provenance.Graph {
		g := emptyGraph()
		hp := hostPortOf(t, tp, 1)
		addPort(g, ref(0, 0), 5)
		addPort(g, hp, 3)
		addPortEdge(g, ref(0, 0), hp, 50)
		addFlowPort(g, flowT(1), ref(0, 0), 5)
		setEvidence(g, ref(0, 0), hp, 6)
		setCoverage(g, full, 4, full)
		return g
	}
	frac := 0.5
	avg := 1.0
	rejected := 1.0
	for i := 0; i < 3; i++ {
		rejected *= 0.6
	}
	cases := [numPenalties]struct {
		build  func() (*provenance.Graph, packet.FiveTuple)
		factor float64
		note   string
	}{
		penSwitchCoverage: {func() (*provenance.Graph, packet.FiveTuple) {
			g := base()
			g.Coverage.SetExpected([]topo.NodeID{0, 1, 2, 3})
			return g, flowT(1)
		}, 0.35 + 0.65*frac, "no report from 2 of 4 victim-path switches"},
		penEpochDepth: {func() (*provenance.Graph, packet.FiveTuple) {
			g := contentionGraph()
			setEvidence(g, ref(0, 0), ref(1, 1), 6)
			setCoverage(g, full, 1, full)
			return g, flowT(1)
		}, 0.7 + 0.3*(avg/3), "telemetry epochs sparse: 1.0 per report on average"},
		penRejectedReports: {func() (*provenance.Graph, packet.FiveTuple) {
			// Five rejections compound three times.
			g := base()
			for i := 0; i < 5; i++ {
				g.Coverage.NoteRejected(1)
			}
			return g, flowT(1)
		}, rejected, "5 telemetry reports rejected at admission; their switches were heard from and disbelieved"},
		penCorruption: {func() (*provenance.Graph, packet.FiveTuple) {
			g := base()
			g.Coverage.Clamped = 3
			return g, flowT(1)
		}, 0.7, "accepted telemetry carried corruption: 3 values clamped, 0 records outside the topology"},
		penNoVictimTelemetry: {func() (*provenance.Graph, packet.FiveTuple) {
			return base(), flowT(99)
		}, 0.6, "no flow telemetry for the victim anywhere"},
		penVictimNeverPaused: {func() (*provenance.Graph, packet.FiveTuple) {
			g := base()
			v := flowT(99)
			g.Flows[v] = map[topo.PortRef]*provenance.FlowInfo{ref(0, 0): {Tuple: v, Port: ref(0, 0), PktCount: 10}}
			return g, v
		}, 0.75, "victim never recorded paused; walk rooted at live pause registers"},
		penSwitchFacingInjection: {func() (*provenance.Graph, packet.FiveTuple) {
			// No contributors at the switch-to-switch terminal sw1.P1.
			g := base()
			delete(g.PortFlow, ref(1, 1))
			return g, flowT(1)
		}, 0.55, "PFC attributed to injection at a switch-to-switch port; upstream contention telemetry may be lost"},
		penIncompleteInjection: {func() (*provenance.Graph, packet.FiveTuple) {
			g := storm()
			g.Coverage.EpochsBySwitch[0] = 4
			g.Coverage.EpochsBySwitch[1] = 2
			return g, flowT(1)
		}, 0.7, "an injection conclusion rests on an epoch-incomplete report; the missing epochs may hold the real contention"},
		penUncorroboratedHost: {func() (*provenance.Graph, packet.FiveTuple) {
			g := storm()
			hp := hostPortOf(t, tp, 1)
			h, _ := tp.PeerOf(hp.Node, hp.Port)
			g.Coverage.SetExpectedHosts([]topo.NodeID{h})
			return g, flowT(1)
		}, 0.55, "no host-agent snapshot from the host behind the initial congestion point; host-vs-network attribution is uncorroborated"},
		penRejectedHostSnapshots: {func() (*provenance.Graph, packet.FiveTuple) {
			g := base()
			g.Coverage.SetExpectedHosts([]topo.NodeID{4})
			g.Coverage.NoteHostRejected(4)
			return g, flowT(1)
		}, 0.7, "1 host-agent snapshots rejected at admission"},
		penSingleSampleEdge: {func() (*provenance.Graph, packet.FiveTuple) {
			g := base()
			setEvidence(g, ref(0, 0), ref(1, 1), 1)
			return g, flowT(1)
		}, 0.75, "a PFC-path edge rests on a single causality-meter sample"},
		penTwoSampleEdge: {func() (*provenance.Graph, packet.FiveTuple) {
			g := base()
			setEvidence(g, ref(0, 0), ref(1, 1), 2)
			return g, flowT(1)
		}, 0.9, ""},
	}
	if rep := Diagnose(DefaultConfig(), base(), tp, flowT(1)); rep.ConfidenceScore != 1 || len(rep.Missing) != 0 {
		t.Fatalf("no-gap fixture: score %v, missing %v", rep.ConfidenceScore, rep.Missing)
	}
	for row, c := range cases {
		name := penalties[row].name
		if c.build == nil {
			t.Errorf("penalty row %q has no case", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			g, victim := c.build()
			rep := Diagnose(DefaultConfig(), g, tp, victim)
			var want []string
			if c.note != "" {
				want = []string{c.note}
			}
			if !reflect.DeepEqual(rep.Missing, want) {
				t.Fatalf("missing = %q, want %q", rep.Missing, want)
			}
			if rep.ConfidenceScore != c.factor {
				t.Fatalf("score = %v, want exactly %v", rep.ConfidenceScore, c.factor)
			}
		})
	}
}

var (
	shapeNames  = [numShapes]string{"no PFC", "PFC spreading", "loop, initiator inside", "loop, initiator outside"}
	columnNames = [numColumns]string{"flow contention", "host-side", "no initiator found"}
)

func renderTable2() string {
	var b strings.Builder
	b.WriteString("| the walk found |")
	for _, c := range columnNames {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|---|---|---|\n")
	for s, row := range table2 {
		fmt.Fprintf(&b, "| %s |", shapeNames[s])
		for _, ty := range row {
			fmt.Fprintf(&b, " `%v` |", ty)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func renderPenalties() string {
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString("| row | factor | note |\n|---|---|---|\n")
	for _, p := range penalties {
		factor := "×" + num(p.factor)
		if p.scale != 0 {
			factor = fmt.Sprintf("×(%s + %s·frac)", num(p.factor), num(p.scale))
		}
		note := p.note
		if note == "" {
			note = "(none)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", p.name, factor, note)
	}
	return b.String()
}

// TestDesignTables fails when the tables DESIGN.md shows between its
// marker comments differ from table2 and penalties.
func TestDesignTables(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, c := range []struct{ marker, want string }{
		{"table2", renderTable2()},
		{"penalties", renderPenalties()},
	} {
		begin, end := "<!-- "+c.marker+" -->\n", "<!-- /"+c.marker+" -->"
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i {
			t.Errorf("DESIGN.md lacks the %q ... %q block", begin, end)
			continue
		}
		if got := doc[i+len(begin) : j]; got != c.want {
			t.Errorf("DESIGN.md's %s table differs from the code; it should read:\n%s%s%s", c.marker, begin, c.want, end)
		}
	}
}
