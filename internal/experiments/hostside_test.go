package experiments

import (
	"flag"
	"testing"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/workload"
)

// hostSeeds sizes TestHostAttributionProperty: each seed is one trial
// whose scenario and telemetry arm derive from the seed. The default
// keeps plain `go test` fast; the host-smoke CI job runs the full
// 200-seed sweep under -race.
var hostSeeds = flag.Int("host.seeds", 12, "seed count for the host attribution property test")

// TestHostEvalAccuracy runs the mixed host/network evaluation with host
// agents enabled and checks the headline claim: host-caused anomalies
// are attributed to the right host with the right pathology in >=90% of
// trials.
func TestHostEvalAccuracy(t *testing.T) {
	eval, err := NewRunner(0).RunHostEval(5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", eval.Table())
	if acc := eval.AttributionAccuracy(); acc < 0.9 {
		t.Errorf("host attribution accuracy %.2f < 0.90", acc)
	}
	for _, scen := range eval.Scenarios {
		if scen == workload.NameNormal {
			continue
		}
		if pr := eval.PR[scen]; pr.Recall() < 0.8 {
			t.Errorf("%s: recall %.2f < 0.80", scen, pr.Recall())
		}
	}
}

// TestMixedRobustnessConfidence sweeps host-agent snapshot loss 0 -> 50%
// over the mixed workload set and checks the degraded-mode invariants:
// average confidence never rises with the loss rate, degrades across the
// sweep, and no wrong diagnosis is graded high-confidence at any point.
func TestMixedRobustnessConfidence(t *testing.T) {
	curve, err := NewRunner(0).RunMixedRobustnessCurve(1, []float64{0, 0.25, 0.5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", curve.Table())
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
			t.Errorf("confidence rose with host-telemetry loss: %.2f@%.2f -> %.2f@%.2f",
				prev.AvgConfidence, prev.FaultRate, cur.AvgConfidence, cur.FaultRate)
		}
	}
	first, last := curve.Points[0], curve.Points[len(curve.Points)-1]
	if last.AvgConfidence >= first.AvgConfidence {
		t.Errorf("confidence did not degrade across the sweep: %.2f -> %.2f",
			first.AvgConfidence, last.AvgConfidence)
	}
}

// TestHostAttributionProperty is the seeded degraded-mode property over
// the three host pathologies. Per seed, one trial: the scenario rotates
// through the pathologies and the seed's parity picks the telemetry arm.
//
//   - Host agents ON: the primary cause must be host-side, anchored at
//     the sick host.
//   - Host agents OFF: whatever the verdict, it must never be a
//     high-confidence network cause — the missing host evidence has to
//     show up as degraded confidence, not as a confident misattribution.
func TestHostAttributionProperty(t *testing.T) {
	scens := workload.HostScenarios()
	for seed := uint64(1); seed <= uint64(*hostSeeds); seed++ {
		scen := scens[int(seed)%len(scens)]
		cfg := DefaultTrialConfig(scen, seed)
		degraded := seed%2 == 1
		cfg.DisableHostAgents = degraded
		tr, err := RunTrial(cfg)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", scen, seed, err)
		}
		if tr.Score.Result == nil {
			if !degraded {
				t.Errorf("%s seed=%d: no diagnosis with host agents on", scen, seed)
			}
			continue
		}
		d := tr.Score.Result.Diagnosis
		cause := d.PrimaryCause()
		if degraded {
			if d.Confidence == diagnosis.ConfHigh && !cause.Kind.IsHostSide() {
				t.Errorf("%s seed=%d: high-confidence network verdict (%v at %v) without host telemetry",
					scen, seed, cause.Kind, cause.Port)
			}
			continue
		}
		if !cause.Kind.IsHostSide() {
			t.Errorf("%s seed=%d: primary cause %v is not host-side despite host telemetry",
				scen, seed, cause.Kind)
			continue
		}
		if cause.Host != tr.GT.Injector {
			t.Errorf("%s seed=%d: attributed to host %v, want %v",
				scen, seed, cause.Host, tr.GT.Injector)
		}
	}
}
