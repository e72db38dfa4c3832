package experiments

import (
	"fmt"

	"hawkeye/internal/chaos"
	"hawkeye/internal/metrics"
	"hawkeye/internal/workload"
)

// HostEval is one pass over the mixed host/network scenario set: the
// per-scenario precision/recall plus the host-attribution ledger — how
// often a host-caused anomaly was pinned on the right host with the
// right pathology.
type HostEval struct {
	Scenarios []string
	PR        map[string]metrics.PR

	// HostTrials / HostCorrect count only the host-pathology scenarios;
	// their ratio is the attribution accuracy the host-agent channel is
	// accountable for.
	HostTrials  int
	HostCorrect int
}

// AttributionAccuracy is the fraction of host-caused anomalies diagnosed
// with the correct pathology kind at the correct host.
func (e *HostEval) AttributionAccuracy() float64 {
	if e.HostTrials == 0 {
		return 0
	}
	return float64(e.HostCorrect) / float64(e.HostTrials)
}

// Table renders the mixed evaluation.
func (e *HostEval) Table() *metrics.Table {
	table := &metrics.Table{
		Title:   "Mixed host/network evaluation",
		Headers: []string{"scenario", "precision", "recall"},
	}
	for _, scen := range e.Scenarios {
		pr := e.PR[scen]
		table.AddRow(scen,
			fmt.Sprintf("%.2f", pr.Precision()),
			fmt.Sprintf("%.2f", pr.Recall()))
	}
	table.AddRow("host attribution", fmt.Sprintf("%.2f", e.AttributionAccuracy()), "-")
	return table
}

// RunHostEval executes `trials` traces per mixed scenario at the default
// operating point (host agents enabled) on this runner's pool.
func (r *Runner) RunHostEval(trials int) (*HostEval, error) {
	scens := workload.MixedScenarios()
	var cfgs []TrialConfig
	for _, scen := range scens {
		for seed := uint64(1); seed <= uint64(trials); seed++ {
			cfgs = append(cfgs, DefaultTrialConfig(scen, seed))
		}
	}
	scores, err := mapOrdered(r, len(cfgs), func(i int) (metrics.TrialScore, error) {
		tr, err := RunTrial(cfgs[i])
		if err != nil {
			return metrics.TrialScore{}, err
		}
		return tr.Score, nil
	})
	if err != nil {
		return nil, err
	}
	hostScen := make(map[string]bool)
	for _, s := range workload.HostScenarios() {
		hostScen[s] = true
	}
	eval := &HostEval{Scenarios: scens, PR: make(map[string]metrics.PR, len(scens))}
	for i, s := range scores {
		scen := cfgs[i].Scenario
		pr := eval.PR[scen]
		pr.Add(s)
		eval.PR[scen] = pr
		if hostScen[scen] {
			eval.HostTrials++
			if s.Correct {
				eval.HostCorrect++
			}
		}
	}
	return eval, nil
}

// MixedRobustnessSchedule builds the fault schedule for one point of the
// host-telemetry robustness sweep: host-agent snapshot loss at the given
// rate, with a quarter of the surviving snapshots corrupted (a flaky
// agent both misses deadlines and ships damaged counters).
func MixedRobustnessSchedule(rate float64) *chaos.Schedule {
	return &chaos.Schedule{
		HostReportLoss:    rate,
		HostReportCorrupt: rate / 4,
	}
}

// RunMixedRobustnessCurve sweeps host-telemetry loss over the mixed
// host/network workload set and folds one curve per rate: every scenario
// contributes `trials` seeds to each point, so a point reflects the
// fleet-wide confidence under that loss rate, not one pathology's. Chaos
// seeds derive from trial seeds, so the folded curve is identical at any
// worker count.
func (r *Runner) RunMixedRobustnessCurve(seed uint64, rates []float64, trials int) (*metrics.RobustnessCurve, error) {
	scens := workload.MixedScenarios()
	perRate := len(scens) * trials
	return r.runCurve("mixed-host", rates, perRate, func(i int) TrialConfig {
		cfg := DefaultTrialConfig(scens[(i%perRate)/trials], seed+uint64(i%trials))
		cfg.Chaos = MixedRobustnessSchedule(rates[i/perRate])
		return cfg
	})
}
