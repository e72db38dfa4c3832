package experiments

import (
	"testing"

	"hawkeye/internal/baselines"
	"hawkeye/internal/workload"
)

// TestScenariosDiagnoseCorrectly is the central correctness check: every
// crafted anomaly on the fat-tree must be detected and diagnosed with
// the right type and root cause at the default operating point. It reads
// seed 1 of the shared grid; a failing trial is re-run for the message.
func TestScenariosDiagnoseCorrectly(t *testing.T) {
	for _, row := range verdictGrid(t) {
		if row.Seed != 1 {
			continue
		}
		row := row
		t.Run(row.Scenario, func(t *testing.T) {
			if row.Detected && row.Correct {
				return
			}
			tr, err := RunTrial(DefaultTrialConfig(row.Scenario, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Score.Detected {
				t.Fatalf("anomaly not detected: %s (triggers=%d)", tr.Score.Reason, len(tr.Sys.Triggers()))
			}
			t.Fatalf("misdiagnosed: %s\n%v\n%v", tr.Score.Reason,
				tr.Score.Result.Diagnosis, tr.Score.Result.Graph)
		})
	}
}

func TestBaselineAccuracyOrdering(t *testing.T) {
	// On the incast scenario: Hawkeye and full-polling correct; the
	// PFC-blind baselines must NOT identify the PFC anomaly type.
	tr, err := RunTrial(DefaultTrialConfig(workload.NameIncast, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Score.Correct {
		t.Fatalf("hawkeye itself failed on seed 2: %s", tr.Score.Reason)
	}
	if s := tr.BaselineScore(baselines.KindFullPolling); !s.Correct {
		t.Errorf("full-polling should match hawkeye: %s", s.Reason)
	}
	for _, k := range []baselines.Kind{baselines.KindSpiderMon, baselines.KindNetSight} {
		if s := tr.BaselineScore(k); s.Correct {
			t.Errorf("%v diagnosed a PFC anomaly without PFC visibility", k)
		}
	}
}

func TestBaselineOverheadOrdering(t *testing.T) {
	tr, err := RunTrial(DefaultTrialConfig(workload.NameIncast, 3))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Score.Result == nil {
		t.Fatal("no trigger on seed 3")
	}
	hk := tr.BaselineOverhead(baselines.KindHawkeye)
	full := tr.BaselineOverhead(baselines.KindFullPolling)
	ns := tr.BaselineOverhead(baselines.KindNetSight)
	if hk.CollectedBytes == 0 {
		t.Fatal("hawkeye collected nothing")
	}
	if full.CollectedBytes < hk.CollectedBytes {
		t.Errorf("full polling (%d B) cheaper than hawkeye (%d B)", full.CollectedBytes, hk.CollectedBytes)
	}
	if ns.CollectedBytes < full.CollectedBytes {
		t.Errorf("netsight postcards (%d B) cheaper than full polling (%d B)", ns.CollectedBytes, full.CollectedBytes)
	}
	if full.SwitchesTouched != 20 {
		t.Errorf("full polling touched %d switches, want 20", full.SwitchesTouched)
	}
	if hk.SwitchesTouched >= full.SwitchesTouched {
		t.Errorf("hawkeye touched %d switches, full %d", hk.SwitchesTouched, full.SwitchesTouched)
	}
}
