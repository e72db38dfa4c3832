package experiments

import (
	"fmt"

	"hawkeye/internal/baselines"
	"hawkeye/internal/metrics"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

// AnomalyScenarios are the four PFC anomaly cases of Fig. 7.
func AnomalyScenarios() []string {
	return []string{
		workload.NameIncast,
		workload.NameStorm,
		workload.NameInLoop,
		workload.NameOutLoopInject,
	}
}

// EvalScenarios adds normal contention (Figs. 8-11).
func EvalScenarios() []string {
	return append(AnomalyScenarios(), workload.NameNormal)
}

// Fig7Config controls the epoch-size / threshold sweep.
type Fig7Config struct {
	EpochBits []uint
	Factors   []float64
	Trials    int
}

// DefaultFig7 covers the paper's ranges: epochs ~131 µs – ~2.1 ms
// (100 µs – 2 ms in the paper), thresholds 200%–500% RTT.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		EpochBits: []uint{17, 18, 19, 20, 21},
		Factors:   []float64{2, 3, 4, 5},
		Trials:    5,
	}
}

// QuickFig7 is a reduced sweep for smoke runs.
func QuickFig7() Fig7Config {
	return Fig7Config{EpochBits: []uint{17, 19, 21}, Factors: []float64{2, 4}, Trials: 2}
}

// Fig7Cell is one sweep point.
type Fig7Cell struct {
	Scenario  string
	EpochBits uint
	Factor    float64
	PR        metrics.PR
}

// Fig7 runs the precision/recall sweep over epoch size and detection
// threshold for each anomaly case on this runner's pool. Each (scenario,
// epoch, threshold, seed) point is one independent trial; scores are
// folded back per cell in seed order, so any worker count renders the
// same table.
func (r *Runner) Fig7(cfg Fig7Config) ([]Fig7Cell, *metrics.Table, error) {
	var cfgs []TrialConfig
	for _, scen := range AnomalyScenarios() {
		for _, bits := range cfg.EpochBits {
			for _, factor := range cfg.Factors {
				for seed := uint64(1); seed <= uint64(cfg.Trials); seed++ {
					tc := DefaultTrialConfig(scen, seed)
					tc.EpochBits = bits
					tc.RTTFactor = factor
					cfgs = append(cfgs, tc)
				}
			}
		}
	}
	// The sweep only needs the scores; returning them (not the trials)
	// lets each finished cluster be reclaimed while the sweep runs.
	scores, err := mapOrdered(r, len(cfgs), func(i int) (metrics.TrialScore, error) {
		tr, err := RunTrial(cfgs[i])
		if err != nil {
			return metrics.TrialScore{}, err
		}
		return tr.Score, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var cells []Fig7Cell
	table := &metrics.Table{
		Title:   "Fig 7: precision & recall vs epoch size and detection threshold",
		Headers: []string{"scenario", "epoch", "threshold", "precision", "recall"},
	}
	next := 0
	for _, scen := range AnomalyScenarios() {
		for _, bits := range cfg.EpochBits {
			for _, factor := range cfg.Factors {
				var pr metrics.PR
				for t := 0; t < cfg.Trials; t++ {
					pr.Add(scores[next])
					next++
				}
				cells = append(cells, Fig7Cell{scen, bits, factor, pr})
				table.AddRow(scen,
					(sim.Time(1) << bits).String(),
					fmt.Sprintf("%.0f%%", factor*100),
					fmt.Sprintf("%.2f", pr.Precision()),
					fmt.Sprintf("%.2f", pr.Recall()))
			}
		}
	}
	return cells, table, nil
}

// EvalRun is one full pass over the evaluation scenarios; Figs. 8, 9,
// 10, 11 and 14 all read from it.
type EvalRun struct {
	Trials map[string][]*Trial
}

// RunEval executes `trials` traces per scenario at the default operating
// point on this runner's pool. Results land in the map in scenario/seed
// order whatever the worker count, so every downstream figure is
// identical to the serial pass.
func (r *Runner) RunEval(trials int) (*EvalRun, error) {
	var cfgs []TrialConfig
	for _, scen := range EvalScenarios() {
		for seed := uint64(1); seed <= uint64(trials); seed++ {
			cfgs = append(cfgs, DefaultTrialConfig(scen, seed))
		}
	}
	trs, err := r.runConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	run := &EvalRun{Trials: make(map[string][]*Trial, len(EvalScenarios()))}
	for i, tr := range trs {
		run.Trials[cfgs[i].Scenario] = append(run.Trials[cfgs[i].Scenario], tr)
	}
	return run, nil
}

// Fig8 compares diagnosis accuracy across systems (upper bound with
// optimal parameters, as §4.2 frames it).
func (run *EvalRun) Fig8() *metrics.Table {
	table := &metrics.Table{
		Title:   "Fig 8: precision & recall vs baselines",
		Headers: []string{"scenario", "method", "precision", "recall"},
	}
	for _, scen := range EvalScenarios() {
		for _, kind := range baselines.All() {
			var pr metrics.PR
			for _, tr := range run.Trials[scen] {
				pr.Add(tr.BaselineScore(kind))
			}
			table.AddRow(scen, kind.String(),
				fmt.Sprintf("%.2f", pr.Precision()),
				fmt.Sprintf("%.2f", pr.Recall()))
		}
	}
	return table
}

// Fig9 reports processing overhead (telemetry collected per diagnosis)
// and monitoring bandwidth overhead.
func (run *EvalRun) Fig9() *metrics.Table {
	table := &metrics.Table{
		Title:   "Fig 9: overhead vs baselines (mean per diagnosis)",
		Headers: []string{"method", "collected-KB", "monitor-wire-KB", "switches"},
	}
	for _, kind := range baselines.All() {
		var coll, wire, touched []float64
		for _, scen := range EvalScenarios() {
			for _, tr := range run.Trials[scen] {
				if tr.Score.Result == nil {
					continue
				}
				o := tr.BaselineOverhead(kind)
				coll = append(coll, float64(o.CollectedBytes)/1024)
				wire = append(wire, float64(o.MonitorWireBytes)/1024)
				touched = append(touched, float64(o.SwitchesTouched))
			}
		}
		table.AddRow(kind.String(),
			fmt.Sprintf("%.1f", metrics.Mean(coll)),
			fmt.Sprintf("%.1f", metrics.Mean(wire)),
			fmt.Sprintf("%.1f", metrics.Mean(touched)))
	}
	return table
}

// Fig10 compares the telemetry-granularity ablations.
func (run *EvalRun) Fig10() *metrics.Table {
	table := &metrics.Table{
		Title:   "Fig 10: diagnosis effectiveness of telemetry granularities",
		Headers: []string{"scenario", "telemetry", "precision", "recall"},
	}
	for _, scen := range EvalScenarios() {
		for _, kind := range baselines.Granularities() {
			var pr metrics.PR
			for _, tr := range run.Trials[scen] {
				pr.Add(tr.BaselineScore(kind))
			}
			table.AddRow(scen, kind.String(),
				fmt.Sprintf("%.2f", pr.Precision()),
				fmt.Sprintf("%.2f", pr.Recall()))
		}
	}
	return table
}

// Fig11 reports collected-switch counts and causal-coverage ratios.
func (run *EvalRun) Fig11() *metrics.Table {
	table := &metrics.Table{
		Title:   "Fig 11: collected switches and causal coverage",
		Headers: []string{"scenario", "method", "switches", "coverage"},
	}
	kinds := []baselines.Kind{baselines.KindHawkeye, baselines.KindFullPolling, baselines.KindVictimOnly}
	for _, scen := range EvalScenarios() {
		for _, kind := range kinds {
			var count, cover []float64
			for _, tr := range run.Trials[scen] {
				if tr.Score.Result == nil {
					continue
				}
				var collected map[int]bool
				switch kind {
				case baselines.KindHawkeye:
					collected = toSet(tr.Score.Result.Switches)
					// The collection-scale metric counts only switches
					// polled for THIS diagnosis.
					count = append(count, float64(tr.Score.Result.PolledSwitches))
				case baselines.KindFullPolling:
					collected = make(map[int]bool)
					for id := range tr.View.AllSwitches {
						collected[int(id)] = true
					}
				case baselines.KindVictimOnly:
					collected = make(map[int]bool)
					for _, id := range tr.View.VictimPath {
						collected[int(id)] = true
					}
				}
				if kind != baselines.KindHawkeye {
					count = append(count, float64(len(collected)))
				}
				causal, hit := 0, 0
				for id := range tr.GT.CausalSwitches {
					causal++
					if collected[int(id)] {
						hit++
					}
				}
				if causal > 0 {
					cover = append(cover, float64(hit)/float64(causal))
				}
			}
			table.AddRow(scen, kind.String(),
				fmt.Sprintf("%.1f", metrics.Mean(count)),
				fmt.Sprintf("%.2f", metrics.Mean(cover)))
		}
	}
	return table
}

// Fig14 reports the CPU poller's zero-filtering and MTU-batching gains.
func (run *EvalRun) Fig14() *metrics.Table {
	table := &metrics.Table{
		Title:   "Fig 14: controller-assisted collection efficiency",
		Headers: []string{"scenario", "size-reduction", "packet-reduction"},
	}
	for _, scen := range EvalScenarios() {
		var sizeRed, pktRed []float64
		for _, tr := range run.Trials[scen] {
			st := tr.Sys.Collector.Stats()
			if st.FullDumpBytes == 0 {
				continue
			}
			sizeRed = append(sizeRed, 1-metrics.Ratio(float64(st.ReportBytes), float64(st.FullDumpBytes)))
			pktRed = append(pktRed, 1-metrics.Ratio(float64(st.ReportPackets), float64(st.FullDumpPackets)))
		}
		table.AddRow(scen,
			fmt.Sprintf("%.1f%%", metrics.Mean(sizeRed)*100),
			fmt.Sprintf("%.1f%%", metrics.Mean(pktRed)*100))
	}
	return table
}

func toSet(ids []topo.NodeID) map[int]bool {
	out := make(map[int]bool, len(ids))
	for _, id := range ids {
		out[int(id)] = true
	}
	return out
}
