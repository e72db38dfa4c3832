package experiments

import (
	"fmt"
	"strings"

	"hawkeye/internal/collect"
	"hawkeye/internal/metrics"
	"hawkeye/internal/sim"
	"hawkeye/internal/workload"
)

// Fig12 runs each scenario once and renders the diagnosis plus the
// provenance graph — the paper's case studies — fanned out across the
// pool and stitched back in scenario order.
func (r *Runner) Fig12() (string, error) {
	scens := EvalScenarios()
	sections, err := mapOrdered(r, len(scens), func(i int) (string, error) {
		tr, err := RunTrial(DefaultTrialConfig(scens[i], 1))
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "\n--- %s ---\n", scens[i])
		if tr.Score.Result == nil {
			b.WriteString("no diagnosis triggered\n")
			return b.String(), nil
		}
		fmt.Fprintf(&b, "trigger: %v at %v (%s)\n",
			tr.Score.Result.Trigger.Victim, tr.Score.Result.Trigger.At, tr.Score.Result.Trigger.Reason)
		b.WriteString(tr.Score.Result.Diagnosis.String())
		b.WriteString(tr.Score.Result.Graph.String())
		return b.String(), nil
	})
	if err != nil {
		return "", err
	}
	return "== Fig 12: case-study provenance graphs ==\n" + strings.Join(sections, ""), nil
}

// PollerLatency renders the §4.5 CPU-poller timing model.
func PollerLatency() *metrics.Table {
	cfg := collect.DefaultConfig()
	t := &metrics.Table{
		Title:   "CPU poller latency model (paper 4.5: ~80ms/2 epochs, ~120ms/4)",
		Headers: []string{"epochs", "latency"},
	}
	for _, n := range []int{1, 2, 4} {
		lat := cfg.BaseLatency + sim.Time(n)*cfg.PerEpochLatency
		t.AddRow(fmt.Sprintf("%d", n), lat.String())
	}
	return t
}

// AblationMeterBits compares Hawkeye's byte-count causality meter against
// an ITSY-style 1-bit presence meter (§3.3 argues the byte counts are
// what rank causal relevance). Both scores of a trial are computed
// inside its job so the heavyweight trial state dies with the worker.
func (r *Runner) AblationMeterBits(trials int) (*metrics.Table, error) {
	scens := AnomalyScenarios()
	type pair struct{ full, onebit metrics.TrialScore }
	n := len(scens) * trials
	pairs, err := mapOrdered(r, n, func(i int) (pair, error) {
		scen := scens[i/trials]
		seed := uint64(i%trials) + 1
		tr, err := RunTrial(DefaultTrialConfig(scen, seed))
		if err != nil {
			return pair{}, err
		}
		return pair{full: tr.Score, onebit: tr.ScoreWithBinaryMeter()}, nil
	})
	if err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title:   "Ablation: byte-count vs 1-bit causality meter",
		Headers: []string{"scenario", "meter", "precision", "recall"},
	}
	for si, scen := range scens {
		var full, onebit metrics.PR
		for t := 0; t < trials; t++ {
			full.Add(pairs[si*trials+t].full)
			onebit.Add(pairs[si*trials+t].onebit)
		}
		table.AddRow(scen, "bytes", fmt.Sprintf("%.2f", full.Precision()), fmt.Sprintf("%.2f", full.Recall()))
		table.AddRow(scen, "1-bit", fmt.Sprintf("%.2f", onebit.Precision()), fmt.Sprintf("%.2f", onebit.Recall()))
	}
	return table, nil
}

// AblationEpochCount sweeps the telemetry ring depth on this runner's
// pool: shallow rings lose anomaly evidence before the complaint
// arrives.
func (r *Runner) AblationEpochCount(trials int) (*metrics.Table, error) {
	depths := []int{2, 4, 8}
	var cfgs []TrialConfig
	for _, scen := range AnomalyScenarios() {
		for _, n := range depths {
			for seed := uint64(1); seed <= uint64(trials); seed++ {
				tc := DefaultTrialConfig(scen, seed)
				tc.NumEpochs = n
				cfgs = append(cfgs, tc)
			}
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
	table := &metrics.Table{
		Title:   "Ablation: telemetry ring depth",
		Headers: []string{"scenario", "epochs", "precision", "recall"},
	}
	next := 0
	for _, scen := range AnomalyScenarios() {
		for _, n := range depths {
			var pr metrics.PR
			for t := 0; t < trials; t++ {
				pr.Add(scores[next])
				next++
			}
			table.AddRow(scen, fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2f", pr.Precision()), fmt.Sprintf("%.2f", pr.Recall()))
		}
	}
	return table, nil
}

// AblationDedup compares polling dedup on/off by polls handled and
// collections performed (the dedup exists purely to bound overhead).
func (r *Runner) AblationDedup(trials int) (*metrics.Table, error) {
	windows := []sim.Time{0, sim.Millisecond}
	type counts struct{ polls, colls float64 }
	n := len(windows) * trials
	rows, err := mapOrdered(r, n, func(i int) (counts, error) {
		dedup := windows[i/trials]
		seed := uint64(i%trials) + 1
		tc := DefaultTrialConfig(workload.NameIncast, seed)
		tr, err := runTrialWithDedup(tc, dedup)
		if err != nil {
			return counts{}, err
		}
		var handled uint64
		for _, h := range tr.Sys.Handlers {
			handled += h.Handled
		}
		return counts{
			polls: float64(handled),
			colls: float64(tr.Sys.Collector.Stats().Collections),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	table := &metrics.Table{
		Title:   "Ablation: polling dedup window",
		Headers: []string{"dedup", "polls-handled", "collections"},
	}
	for wi, dedup := range windows {
		var polls, colls []float64
		for t := 0; t < trials; t++ {
			polls = append(polls, rows[wi*trials+t].polls)
			colls = append(colls, rows[wi*trials+t].colls)
		}
		table.AddRow(dedup.String(),
			fmt.Sprintf("%.0f", metrics.Mean(polls)),
			fmt.Sprintf("%.0f", metrics.Mean(colls)))
	}
	return table, nil
}

// PartialDeployment evaluates §5's deployment option: PFC causality
// analysis fabric-wide, flow telemetry only on edge (ToR) switches.
// Root causes at edge ports stay diagnosable; those on aggregation/core
// ports lose their contributing-flow evidence.
func (r *Runner) PartialDeployment(trials int) (*metrics.Table, error) {
	var cfgs []TrialConfig
	for _, scen := range EvalScenarios() {
		for _, partial := range []bool{false, true} {
			for seed := uint64(1); seed <= uint64(trials); seed++ {
				tc := DefaultTrialConfig(scen, seed)
				tc.EdgeFlowTelemetryOnly = partial
				cfgs = append(cfgs, tc)
			}
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
	table := &metrics.Table{
		Title:   "Discussion 5: partial deployment (flow telemetry on edges only)",
		Headers: []string{"scenario", "deployment", "precision", "recall"},
	}
	next := 0
	for _, scen := range EvalScenarios() {
		for _, partial := range []bool{false, true} {
			var pr metrics.PR
			for t := 0; t < trials; t++ {
				pr.Add(scores[next])
				next++
			}
			name := "full"
			if partial {
				name = "edges-only"
			}
			table.AddRow(scen, name,
				fmt.Sprintf("%.2f", pr.Precision()), fmt.Sprintf("%.2f", pr.Recall()))
		}
	}
	return table, nil
}
