package experiments

import (
	"hawkeye/internal/chaos"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/metrics"
)

// RobustnessSchedule builds the fault schedule for one point of a
// robustness sweep: telemetry-epoch loss at the given rate, with the
// collection path degraded at half of it (reports and epochs fail
// together in practice — a flaky controller loses both).
func RobustnessSchedule(rate float64) *chaos.Schedule {
	return &chaos.Schedule{
		TelemetryEpochLoss: rate,
		CollectDrop:        rate / 2,
	}
}

// robustnessSample is one trial's contribution to a curve point.
type robustnessSample struct {
	score         metrics.TrialScore
	confidence    float64
	hasResult     bool
	highConfWrong bool
}

// RunRobustnessCurve sweeps fault rates over a scenario and measures how
// the diagnosis degrades: precision/recall per rate, the average
// confidence the diagnoses claimed, and — the invariant that matters —
// how often a wrong diagnosis was graded high-confidence. Every
// (rate, trial) point is an independent trial — the chaos seed derives
// from the trial seed, not from sweep position — so the folded curve is
// identical at any worker count.
func (r *Runner) RunRobustnessCurve(scenario string, seed uint64, rates []float64, trials int) (*metrics.RobustnessCurve, error) {
	return r.runCurve(scenario, rates, trials, func(i int) TrialConfig {
		cfg := DefaultTrialConfig(scenario, seed+uint64(i%trials))
		cfg.Chaos = RobustnessSchedule(rates[i/trials])
		return cfg
	})
}

// runCurve runs perRate trials at each fault rate — trial i built by
// cfg(i), rate i/perRate — and folds them into one point per rate.
func (r *Runner) runCurve(name string, rates []float64, perRate int, cfg func(i int) TrialConfig) (*metrics.RobustnessCurve, error) {
	samples, err := mapOrdered(r, len(rates)*perRate, func(i int) (robustnessSample, error) {
		tr, err := RunTrial(cfg(i))
		if err != nil {
			return robustnessSample{}, err
		}
		s := robustnessSample{score: tr.Score}
		if tr.Score.Result != nil {
			d := tr.Score.Result.Diagnosis
			s.hasResult = true
			s.confidence = d.ConfidenceScore
			s.highConfWrong = !tr.Score.Correct && d.Confidence == diagnosis.ConfHigh
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	curve := &metrics.RobustnessCurve{Name: name}
	for ri, rate := range rates {
		pt := metrics.RobustnessPoint{FaultRate: rate}
		confSum, confN := 0.0, 0
		for t := 0; t < perRate; t++ {
			s := samples[ri*perRate+t]
			pt.PR.Add(s.score)
			pt.Trials++
			if s.hasResult {
				confSum += s.confidence
				confN++
				if s.highConfWrong {
					pt.HighConfWrong++
				}
			}
		}
		if confN > 0 {
			pt.AvgConfidence = confSum / float64(confN)
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}
