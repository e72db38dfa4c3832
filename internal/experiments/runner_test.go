package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hawkeye/internal/baselines"
	"hawkeye/internal/core"
	"hawkeye/internal/metrics"
	"hawkeye/internal/workload"
)

// evalSignature is the deep-comparable projection of an EvalRun: every
// diagnosis result, score, baseline view and trace statistic of every
// trial, in scenario/seed order. Function-typed fields (cluster hooks)
// are excluded; everything the figures read is included.
type evalSignature struct {
	Scenario string
	Seed     uint64
	Results  []*core.Result
	Score    metrics.TrialScore
	Stats    baselines.TraceStats
	View     baselines.View
}

func signatureOf(run *EvalRun) []evalSignature {
	var sig []evalSignature
	for _, scen := range EvalScenarios() {
		for _, tr := range run.Trials[scen] {
			sig = append(sig, evalSignature{
				Scenario: tr.Cfg.Scenario,
				Seed:     tr.Cfg.Seed,
				Results:  tr.Results,
				Score:    tr.Score,
				Stats:    tr.Stats,
				View:     tr.View,
			})
		}
	}
	return sig
}

// TestParallelEvalRunDeterministic pins the Runner's core guarantee:
// EvalRun with 8 workers is deep-equal to the serial run, and repeated
// parallel runs are identical. `make race` runs this under the race
// detector, which also proves trial isolation.
func TestParallelEvalRunDeterministic(t *testing.T) {
	serial, err := NewRunner(1).RunEval(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(8).RunEval(1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := NewRunner(8).RunEval(1)
	if err != nil {
		t.Fatal(err)
	}
	want := signatureOf(serial)
	if got := signatureOf(parallel); !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=8 diverged from workers=1 at %s seed=%d", want[i].Scenario, want[i].Seed)
			}
		}
		t.Fatal("workers=8 diverged from workers=1")
	}
	if got := signatureOf(again); !reflect.DeepEqual(got, want) {
		t.Fatal("repeated workers=8 runs are not identical")
	}
}

// TestParallelRobustnessCurveDeterministic pins the same guarantee for
// the fault-injection sweep, where every trial additionally consumes a
// seeded chaos stream.
func TestParallelRobustnessCurveDeterministic(t *testing.T) {
	rates := []float64{0, 0.3}
	run := func(workers int) *metrics.RobustnessCurve {
		c, err := NewRunner(workers).RunRobustnessCurve(workload.NameIncast, 1, rates, 1)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("robustness curve diverged:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
	if again := run(8); !reflect.DeepEqual(parallel, again) {
		t.Fatal("repeated parallel robustness sweeps are not identical")
	}
}

// TestRunnerReportsLowestIndexedError pins error semantics: a parallel
// sweep surfaces the same error the serial loop would hit first, not
// whichever worker happened to fail soonest.
func TestRunnerReportsLowestIndexedError(t *testing.T) {
	boom := errors.New("boom")
	r := NewRunner(4)
	err := r.forEach(16, func(i int) error {
		if i == 3 || i == 11 {
			return boom
		}
		if i > 3 {
			// Give the low-indexed failure time to land so the test is
			// not satisfied by scheduling luck alone.
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	// An invalid scenario fails identically on serial and parallel paths.
	bad := []TrialConfig{DefaultTrialConfig("no-such-scenario", 1)}
	if _, err := NewRunner(1).runConfigs(bad); err == nil {
		t.Fatal("serial runConfigs accepted an unknown scenario")
	}
	if _, err := NewRunner(8).runConfigs(bad); err == nil {
		t.Fatal("parallel runConfigs accepted an unknown scenario")
	}
}

// TestRunnerBoundsInFlight checks that at most Workers jobs run at once
// (each in-flight trial owns a whole cluster, so the bound is a memory
// contract, not just a scheduling detail).
func TestRunnerBoundsInFlight(t *testing.T) {
	const workers = 3
	var inflight, peak atomic.Int64
	err := NewRunner(workers).forEach(24, func(i int) error {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight = %d, want <= %d", p, workers)
	}
}

// TestRunnerCountsTrials pins the throughput line's numerator: each
// successful job is one trial, on the serial and the parallel path, and
// the count accumulates across sweeps on one runner.
func TestRunnerCountsTrials(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := NewRunner(workers)
		for _, n := range []int{5, 7} {
			if err := r.forEach(n, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.Trials(); got != 12 {
			t.Fatalf("workers=%d: Trials() = %d, want 12", workers, got)
		}
	}
}
