package experiments

import (
	"strings"
	"testing"

	"hawkeye/internal/chaos"
	"hawkeye/internal/workload"
)

// renderTrial flattens everything diagnosis-visible into one string:
// every diagnosis report (confidence and missing-evidence lines
// included) plus the provenance graphs they were drawn from.
func renderTrial(tr *Trial) string {
	var b strings.Builder
	for _, res := range tr.Results {
		b.WriteString(res.Diagnosis.String())
		if res.Graph != nil {
			b.WriteString(res.Graph.String())
		}
	}
	return b.String()
}

// TestChaosDeterminism: same seed + same fault schedule => byte-identical
// diagnosis output, down to the confidence scores. This is the replay
// contract that makes chaos runs debuggable.
func TestChaosDeterminism(t *testing.T) {
	run := func() (*Trial, string) {
		cfg := DefaultTrialConfig(workload.NameIncast, 1)
		sched, err := chaos.ParseSchedule("poll-loss=0.1,tel-loss=0.3,meter-corrupt=0.1,collect-drop=0.2,collect-lag=300us")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = sched
		tr, err := RunTrial(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr, renderTrial(tr)
	}
	tr1, out1 := run()
	tr2, out2 := run()
	if out1 != out2 {
		t.Fatalf("same seed + schedule produced different output:\n--- run1 ---\n%s\n--- run2 ---\n%s", out1, out2)
	}
	if out1 == "" {
		t.Fatal("chaos trial produced no diagnosis output to compare")
	}
	if tr1.Chaos == nil || tr2.Chaos == nil {
		t.Fatal("chaos engine not installed")
	}
	if tr1.Chaos.Counters != tr2.Chaos.Counters {
		t.Fatalf("fault replay diverged:\n  %v\n  %v", tr1.Chaos.Counters, tr2.Chaos.Counters)
	}
	if c := tr1.Chaos.Counters; c.EpochsDropped == 0 || c.DeliveriesDropped == 0 {
		t.Fatalf("schedule injected nothing: %v", c)
	}
}

// TestRobustnessConfidenceSweep sweeps telemetry loss 0 -> 50% and checks
// the degraded-mode invariants: confidence falls (never rises) with the
// fault rate, and a wrong diagnosis is never graded high-confidence.
func TestRobustnessConfidenceSweep(t *testing.T) {
	// Two trials per point: seed 2's rate-0.10 trial is the historical
	// regression where lost epochs erased the contention evidence and the
	// walk concluded host injection — it must not be graded high.
	curve, err := NewRunner(0).RunRobustnessCurve(workload.NameIncast, 1, []float64{0, 0.1, 0.25, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", curve.Table())
	if len(curve.Points) != 4 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	for _, p := range curve.Points {
		if p.HighConfWrong != 0 {
			t.Errorf("rate %.2f: %d wrong diagnoses graded high-confidence", p.FaultRate, p.HighConfWrong)
		}
	}
	for i := 1; i < len(curve.Points); i++ {
		prev, cur := curve.Points[i-1], curve.Points[i]
		// Small tolerance: the assessment is multiplicative over several
		// evidence channels and one channel can dominate a single trial.
		if cur.AvgConfidence > prev.AvgConfidence+0.05 {
			t.Errorf("confidence rose with fault rate: %.2f@%.2f -> %.2f@%.2f",
				prev.AvgConfidence, prev.FaultRate, cur.AvgConfidence, cur.FaultRate)
		}
	}
	first, last := curve.Points[0], curve.Points[len(curve.Points)-1]
	if last.AvgConfidence >= first.AvgConfidence {
		t.Errorf("confidence did not degrade across the sweep: %.2f -> %.2f",
			first.AvgConfidence, last.AvgConfidence)
	}
}
