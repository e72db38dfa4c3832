package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"
)

func loadContract(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The tables the program emits from and the contract file say the same,
// name by name, unit by unit, bound by bound.
func TestTablesMatchContract(t *testing.T) {
	spec := loadContract(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from metrics.go:\n file %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from metrics.go:\n file %v\n code %v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, main.go %d", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		check(w.Name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
}

// Every workload, in its smallest mode, passes its oracles and reports
// every end-to-end metric, none of them 0; between them the workloads
// report every per-layer metric of the contract and nothing else. The
// runs synchronise on Close and Drain inside teardown, never on sleeps.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	layered := make(map[string]string)
	for _, def := range workloads {
		out, err := runWorkload(def, config{seed: 1, seconds: 0.3, dir: t.TempDir(), tiny: true}, true)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", def.name, out.Correct, out.Failed, out.Attempted)
		}
		if len(out.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", def.name, len(out.EndToEnd), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v, ok := out.EndToEnd[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end %s = %v (present %v), want a positive number", def.name, d.Name, v, ok)
			}
		}
		for name, v := range out.Layers {
			if !hasMetric(perLayer, name) {
				t.Errorf("%s: per-layer metric %s is not in the contract", def.name, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v", def.name, name, v)
			}
			layered[name] = def.name
		}
	}
	for _, d := range perLayer {
		if layered[d.Name] == "" {
			t.Errorf("no workload reports per-layer metric %s", d.Name)
		}
	}
}

// A report whose snapshot time regresses is rejected by the server; the
// counters read behind Close then disagree with what the client sent,
// and the run is reported as incorrect with failures counted.
func TestBrokenOracleFailsTheRun(t *testing.T) {
	def := workloadDef{name: "svc_first_complaint", make: func(c config) bench {
		s := newSvc(c, 1).(*svc)
		s.regressTaken = true
		return s
	}}
	out, err := runWorkload(def, config{seed: 1, seconds: 0.3, dir: t.TempDir(), tiny: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed == 0 {
		t.Errorf("correct=%v failed=%d after sending regressed reports, want an incorrect run with failures", out.Correct, out.Failed)
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 101; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 51}, {0, 1}, {100, 101}, {99, 100}, {25, 26}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..101 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("p50 of {1,2} = %g, want 1.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// Python's statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25], and
// of [1, 2, 4, 8, 16] it is [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g, %g, want 1.5, 12", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},                // 0: the op
		{parent: 0, start: 10, end: 30},                 // 1: child
		{parent: 0, start: 20, end: 50},                 // 2: child overlapping 1
		{parent: 2, start: 25, end: 35},                 // 3: grandchild
		{parent: 0, start: 90, end: 120},                // 4: child running past the op
		{parent: 0, start: 150, end: 190, replay: true}, // 5: replay, after the op
	}
	want := []int64{100 - 40 - 10, 20, 20, 10, 30, 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "ops_per_s", Better: "higher", Bound: 0.10},
		{Name: "op_p50_ms", Better: "lower", Bound: 0.10},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(ops, ms []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"ops_per_s": ops, "op_p50_ms": ms}}
	}
	steady := []float64{100, 101, 99, 100, 102}
	if code := judge(spec, set(steady, steady), set(steady, steady)); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
	slower := []float64{85, 86, 84, 85, 87}
	if code := judge(spec, set(steady, steady), set(slower, steady)); code != 1 {
		t.Errorf("15%% fewer ops/s within a 10%% bound: exit %d, want 1", code)
	}
	if code := judge(spec, set(steady, steady), set(steady, slower)); code != 0 {
		t.Errorf("15%% lower latency is an improvement: exit %d, want 0", code)
	}
	noisy := []float64{80, 120, 100, 70, 130}
	if code := judge(spec, set(steady, steady), set(noisy, steady)); code != 1 {
		t.Errorf("spread wider than the bound must be unresolved: exit %d, want 1", code)
	}
}
