package experiments

import (
	"testing"

	"hawkeye/internal/workload"
)

func TestSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// Regression floors over seeds 1-5. The deadlock cases are evidence-
	// lifetime-bound (see EXPERIMENTS.md "honest gaps"): a deadlock
	// freezes only the cycle's ports while the switch's other ports keep
	// writing newer epochs, so initiator evidence survives ~one ring span
	// past the anomaly and late-scored seeds lose it. The floors protect
	// the current operating point without pretending it is perfect.
	minPass := map[string]int{
		workload.NameIncast:        5,
		workload.NameStorm:         4,
		workload.NameInLoop:        2,
		workload.NameOutLoopInject: 4,
		workload.NameOutLoopBurst:  4,
		workload.NameNormal:        5,
		// Host pathologies: counter-corroborated attribution is exact on
		// every probed seed; hold the floor there.
		workload.NameSlowReceiver:   5,
		workload.NameCacheThrash:    5,
		workload.NameHostPauseStorm: 5,
	}
	pass := make(map[string]int)
	for _, row := range verdictGrid(t) {
		if row.Correct {
			pass[row.Scenario]++
		} else {
			t.Logf("%s seed=%d: %s", row.Scenario, row.Seed, row.Reason)
		}
	}
	for _, name := range workload.AllScenarios() {
		t.Logf("%s: %d/%d correct", name, pass[name], gridSeeds)
		if pass[name] < minPass[name] {
			t.Errorf("%s: %d/%d correct, below the %d/%d regression floor", name, pass[name], gridSeeds, minPass[name], gridSeeds)
		}
	}
}
