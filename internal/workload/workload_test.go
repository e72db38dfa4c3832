package workload

import (
	"testing"
	"testing/quick"

	"hawkeye/internal/cluster"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func TestCDFValidation(t *testing.T) {
	if _, err := NewSizeCDF(nil); err == nil {
		t.Fatal("empty CDF accepted")
	}
	if _, err := NewSizeCDF([]CDFPoint{{100, 0.5}, {200, 0.9}}); err == nil {
		t.Fatal("CDF not ending at 1 accepted")
	}
	if _, err := NewSizeCDF([]CDFPoint{{100, 0.5}, {50, 1.0}}); err == nil {
		t.Fatal("non-monotone sizes accepted")
	}
	if _, err := NewSizeCDF([]CDFPoint{{100, 0.5}, {200, 0.4}, {300, 1.0}}); err == nil {
		t.Fatal("non-monotone probabilities accepted")
	}
}

func TestPaperCDFShape(t *testing.T) {
	// Verify the §4.1 quantiles at paper scale: <80% of flows under
	// 10 MB, <90% under 100 MB, ~10% in 100-300 MB.
	cdf := PaperCDF(1)
	rng := sim.NewRand(7)
	const n = 50000
	var under10M, under100M, tail int
	for i := 0; i < n; i++ {
		s := cdf.Sample(rng)
		if s <= 10_000_000 {
			under10M++
		}
		if s <= 100_000_000 {
			under100M++
		}
		if s > 100_000_000 {
			tail++
		}
	}
	if f := float64(under10M) / n; f < 0.75 || f > 0.85 {
		t.Errorf("P(<=10MB) = %.3f, want ~0.80", f)
	}
	if f := float64(under100M) / n; f < 0.85 || f > 0.95 {
		t.Errorf("P(<=100MB) = %.3f, want ~0.90", f)
	}
	if f := float64(tail) / n; f < 0.05 || f > 0.15 {
		t.Errorf("P(>100MB) = %.3f, want ~0.10", f)
	}
}

func TestCDFSampleWithinRangeProperty(t *testing.T) {
	cdf := PaperCDF(DefaultScaleDivisor)
	f := func(seed uint64) bool {
		s := cdf.Sample(sim.NewRand(seed))
		return s >= 1000 && s <= 3_000_000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMeanPositive(t *testing.T) {
	if m := PaperCDF(DefaultScaleDivisor).Mean(); m <= 0 {
		t.Fatalf("mean = %v", m)
	}
}

func TestBackgroundLoadScaling(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(ft.Topology)
	cl := cluster.New(ft.Topology, r, cluster.DefaultConfig())
	bg := &Background{Load: 0.1, CDF: PaperCDF(DefaultScaleDivisor), Start: 0, Stop: 10 * sim.Millisecond}
	n := bg.Install(cl, sim.NewRand(3))
	if n == 0 {
		t.Fatal("no background flows")
	}
	// Expected count = load * hosts * bw * T / meanBits, within 3x.
	expected := 0.1 * 16 * 100e9 * 0.010 / (bg.CDF.Mean() * 8)
	if float64(n) < expected/3 || float64(n) > expected*3 {
		t.Fatalf("flow count %d, expected ~%.0f", n, expected)
	}
	// Double load, roughly double flows.
	cl2 := cluster.New(ft.Topology, r, cluster.DefaultConfig())
	bg2 := &Background{Load: 0.2, CDF: bg.CDF, Start: 0, Stop: 10 * sim.Millisecond}
	n2 := bg2.Install(cl2, sim.NewRand(3))
	if float64(n2) < 1.5*float64(n) {
		t.Fatalf("load scaling broken: %d vs %d", n, n2)
	}
}

func TestScenarioRegistry(t *testing.T) {
	for _, name := range AllScenarios() {
		if _, err := ByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Error("unknown scenario resolved")
	}
}

func TestScenarioGroundTruthShape(t *testing.T) {
	// Every builder must produce a well-formed ground truth without
	// running the simulation.
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AllScenarios() {
		build, _ := ByName(name)
		r := topo.ComputeRouting(ft.Topology)
		cl := cluster.New(ft.Topology, r, cluster.DefaultConfig())
		gt := build(cl, ft, Params{EpochSize: 131072})
		if gt.Scenario != name {
			t.Errorf("%s: scenario label %q", name, gt.Scenario)
		}
		if len(gt.Victims) == 0 {
			t.Errorf("%s: no victims", name)
		}
		if len(gt.CausalSwitches) == 0 {
			t.Errorf("%s: no causal switches", name)
		}
		if gt.AnomalyAt <= 0 {
			t.Errorf("%s: anomaly at %v", name, gt.AnomalyAt)
		}
		switch gt.Type {
		case diagnosis.TypePFCStorm, diagnosis.TypeOutLoopDeadlockInjection:
			if gt.Injector == 0 {
				t.Errorf("%s: injection scenario without injector", name)
			}
		default:
			if len(gt.Culprits) == 0 {
				t.Errorf("%s: contention scenario without culprits", name)
			}
		}
	}
}

func TestAnomalyStartEpochAligned(t *testing.T) {
	p := Params{EpochSize: 131072}
	at := p.AnomalyStart()
	if (at-sim.Microsecond)%131072 != 0 {
		t.Fatalf("anomaly start %v not epoch-aligned", at)
	}
	if at <= warmUp {
		t.Fatalf("anomaly start %v before warm-up end %v", at, warmUp)
	}
	if p.warmStart() >= at {
		t.Fatal("warm start after anomaly")
	}
}

func TestCBDMisconfigurationCreatesValley(t *testing.T) {
	// The deadlock builders must install an up-after-down route: verify a
	// cycle flow's path revisits the core layer.
	ft, _ := topo.NewFatTree(4)
	r := topo.ComputeRouting(ft.Topology)
	cl := cluster.New(ft.Topology, r, cluster.DefaultConfig())
	build, _ := ByName(NameInLoop)
	gt := build(cl, ft, Params{EpochSize: 131072})
	cores := map[topo.NodeID]bool{}
	for _, c := range ft.Core {
		cores[c] = true
	}
	valley := false
	for v := range gt.Victims {
		src, _ := cl.Topo.HostByIP(v.SrcIP)
		dst, _ := cl.Topo.HostByIP(v.DstIP)
		path, err := cl.Routing.Path(src, dst, v.Hash())
		if err != nil {
			continue
		}
		coreHits := 0
		for _, n := range path {
			if cores[n] {
				coreHits++
			}
		}
		if coreHits >= 2 {
			valley = true
		}
	}
	if !valley {
		t.Fatal("no cycle flow crosses the core layer twice (CBD misconfig missing)")
	}
}

func TestAlternateCDFs(t *testing.T) {
	rng := sim.NewRand(3)
	for _, name := range []string{"paper", "websearch", "hadoop"} {
		c, err := CDFByName(name, DefaultScaleDivisor)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Mean() <= 0 {
			t.Fatalf("%s: non-positive mean", name)
		}
		for i := 0; i < 200; i++ {
			if s := c.Sample(rng); s < 1000 {
				t.Fatalf("%s: sample %d below the 1KB floor", name, s)
			}
		}
	}
	if _, err := CDFByName("nope", 1); err == nil {
		t.Fatal("unknown CDF accepted")
	}
	// At divisor 1 the distributions keep their published means apart:
	// hadoop (RPC-heavy) << websearch << paper (industrial RDMA).
	h := HadoopCDF(1).Mean()
	w := WebSearchCDF(1).Mean()
	p := PaperCDF(1).Mean()
	if !(h < w && w < p) {
		t.Fatalf("mean ordering violated: hadoop=%.0f websearch=%.0f paper=%.0f", h, w, p)
	}
}

func TestScaledCDFCollapsesFlooredPoints(t *testing.T) {
	// With an aggressive divisor, hadoop's small points all floor to 1 KB;
	// the CDF must stay strictly monotone (NewSizeCDF would reject
	// duplicates).
	c := HadoopCDF(1000)
	rng := sim.NewRand(1)
	for i := 0; i < 100; i++ {
		if s := c.Sample(rng); s < 1000 {
			t.Fatalf("sample %d below floor", s)
		}
	}
}
