// Command hawkeye-sim runs one anomaly scenario on the fat-tree K=4
// evaluation topology with Hawkeye installed, then prints the detection
// events, the heterogeneous provenance graph and the diagnosis — the
// workflow of the paper's case studies (Fig. 12). It is also the figure
// driver of the evaluation (§4).
//
// Usage:
//
//	hawkeye-sim -scenario incast-backpressure -seed 1 -v
//	hawkeye-sim -sweep all -trials 3
//	hawkeye-sim -sweep fig7-full -trials 3 -parallel 8
//	hawkeye-sim -sweep fig7 -cpuprofile cpu.pprof
//
// With -sweep it runs a figure sweep on the parallel trial scheduler
// instead of a single trial, printing its tables plus wall-clock and
// trials/sec; the output is byte-identical at any -parallel value.
// -sweep all prints every table of §4 in paper order: the Fig 7 quick
// grid, Figs 8-11, the Fig 12 case studies, Fig 13a/b, Fig 14, the
// poller latency model, the three ablations, the testbed table and
// partial deployment. -sweep fig7-full is the whole Fig 7 grid (5
// epochs x 4 thresholds). -cpuprofile / -memprofile capture pprof
// profiles of whichever mode ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hawkeye/internal/chaos"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/experiments"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/resources"
	"hawkeye/internal/workload"
)

const sweepNames = "all, eval, fig7, fig7-full, robustness, testbed, host-eval, host-robustness"

func main() {
	scenario := flag.String("scenario", workload.NameIncast,
		"one of: "+strings.Join(workload.AllScenarios(), ", "))
	hostAnomaly := flag.String("host-anomaly", "",
		"shorthand for the host pathologies: slow-receiver, cache-thrash or pause-storm (overrides -scenario)")
	noHostAgents := flag.Bool("no-host-agents", false,
		"disable the host-agent counter channel (degraded-mode ablation)")
	seed := flag.Uint64("seed", 1, "trace seed")
	load := flag.Float64("load", -1, "background load (0..1); -1 = scenario default")
	epochBits := flag.Uint("epoch-bits", 0, "log2 telemetry epoch ns (0 = default 17, ~131us)")
	factor := flag.Float64("threshold", 0, "detection threshold as xRTT (0 = scenario default)")
	verbose := flag.Bool("v", false, "print every diagnosis result, not only the scored one")
	dotPath := flag.String("dot", "", "write the scored provenance graph as Graphviz DOT to this file")
	chaosSpec := flag.String("chaos", "", "fault schedule, e.g. poll-loss=0.1,tel-loss=0.3,collect-drop=0.2 (see internal/chaos)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "fault-injection seed (0 = derive from -seed)")
	sweep := flag.String("sweep", "", "run a figure sweep instead of one trial: "+sweepNames)
	trials := flag.Int("trials", 3, "trials (seeds) per sweep point")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			die(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}
	exit := func(code int) {
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				die(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				die(err)
			}
			f.Close()
		}
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(code)
	}

	if *hostAnomaly != "" {
		name, ok := map[string]string{
			"slow-receiver": workload.NameSlowReceiver,
			"cache-thrash":  workload.NameCacheThrash,
			"pause-storm":   workload.NameHostPauseStorm,
		}[*hostAnomaly]
		if !ok {
			fmt.Fprintf(os.Stderr, "hawkeye-sim: -host-anomaly %q (want slow-receiver, cache-thrash or pause-storm)\n", *hostAnomaly)
			exit(1)
		}
		*scenario = name
	}

	if *sweep != "" {
		runSweep(*sweep, *scenario, *seed, *trials, *parallel)
		exit(0)
	}

	cfg := experiments.DefaultTrialConfig(*scenario, *seed)
	cfg.DisableHostAgents = *noHostAgents
	if *load >= 0 {
		cfg.Load = *load
	}
	if *epochBits != 0 {
		cfg.EpochBits = *epochBits
	}
	if *factor != 0 {
		cfg.RTTFactor = *factor
	}
	if *chaosSpec != "" {
		sched, err := chaos.ParseSchedule(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hawkeye-sim: -chaos:", err)
			exit(1)
		}
		cfg.Chaos = sched
		cfg.ChaosSeed = *chaosSeed
	}

	tr, err := experiments.RunTrial(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hawkeye-sim:", err)
		exit(1)
	}

	fmt.Printf("scenario %s (seed %d): anomaly at %v\n", *scenario, *seed, tr.GT.AnomalyAt)
	fmt.Printf("detected=%v correct=%v (%s)\n", tr.Score.Detected, tr.Score.Correct, tr.Score.Reason)
	if tr.Chaos != nil {
		fmt.Println(tr.Chaos.Counters)
	}
	fmt.Println()

	if *verbose {
		for _, r := range tr.Results {
			fmt.Printf("--- trigger %v at %v (%s)\n", r.Trigger.Victim, r.Trigger.At, r.Trigger.Reason)
			fmt.Print(r.Diagnosis.String())
		}
		fmt.Println()
		st := fleetstore.New(fleetstore.DefaultConfig())
		for _, r := range tr.Results {
			st.Add(fleetstore.NewRecord("sim", r))
		}
		incs := st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode})
		fmt.Printf("%d complaints -> %d incidents:\n", len(tr.Results), len(incs))
		for _, inc := range incs {
			fmt.Printf("  %s, %v .. %v\n", inc.Summary(), inc.First, inc.Last)
		}
		fmt.Println()
	}

	if tr.Score.Result != nil {
		r := tr.Score.Result
		fmt.Printf("scored diagnosis (trigger %v at %v, %s):\n",
			r.Trigger.Victim, r.Trigger.At, r.Trigger.Reason)
		fmt.Print(r.Diagnosis.String())
		if r.Detail != diagnosis.DetailUnknown {
			fmt.Printf("  cause detail: %v\n", r.Detail)
		}
		fmt.Println()
		fmt.Print(r.Graph.String())
		fmt.Printf("\ncollected %d switches; report bytes %d; diagnosis ready %v after trigger\n",
			len(r.Switches), r.ReportBytes, r.ReadyAt-r.Trigger.At)
		if *dotPath != "" {
			if err := os.WriteFile(*dotPath, []byte(r.Graph.DOT(tr.Cl.Topo)), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "hawkeye-sim: dot:", err)
				exit(1)
			}
			fmt.Printf("provenance graph -> %s (render with: dot -Tsvg)\n", *dotPath)
		}
	}
	if !tr.Score.Correct {
		exit(2)
	}
	exit(0)
}

// runSweep fans one figure sweep across the trial scheduler and reports
// throughput: the sweeps are embarrassingly parallel at trial
// granularity, so trials/sec is the number that tracks core count. The
// trial count is the runner's own tally, not a per-sweep formula.
func runSweep(name, scenario string, seed uint64, trials, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := experiments.NewRunner(workers)
	start := time.Now()
	fig7 := func(cfg experiments.Fig7Config) {
		cfg.Trials = trials
		_, t, err := r.Fig7(cfg)
		fmt.Println(must(t, err))
	}
	rates := []float64{0, 0.1, 0.25, 0.5}
	switch name {
	case "all":
		fig7(experiments.QuickFig7())
		run := must(r.RunEval(trials))
		fmt.Println(run.Fig8())
		fmt.Println(run.Fig9())
		fmt.Println(run.Fig10())
		fmt.Println(run.Fig11())
		fmt.Println(must(r.Fig12()))
		fmt.Println(resources.Fig13a())
		fmt.Println(resources.Fig13b())
		fmt.Println(run.Fig14())
		fmt.Println(experiments.PollerLatency())
		fmt.Println(must(r.AblationMeterBits(trials)))
		fmt.Println(must(r.AblationEpochCount(trials)))
		fmt.Println(must(r.AblationDedup(trials)))
		fmt.Println(must(r.TestbedTable(trials)))
		fmt.Println(must(r.PartialDeployment(trials)))
	case "eval":
		fmt.Println(must(r.RunEval(trials)).Fig8())
	case "fig7":
		fig7(experiments.QuickFig7())
	case "fig7-full":
		fig7(experiments.DefaultFig7())
	case "robustness":
		fmt.Println(must(r.RunRobustnessCurve(scenario, seed, rates, trials)).Table())
	case "testbed":
		fmt.Println(must(r.TestbedTable(trials)))
	case "host-eval":
		fmt.Println(must(r.RunHostEval(trials)).Table())
	case "host-robustness":
		fmt.Println(must(r.RunMixedRobustnessCurve(seed, rates, trials)).Table())
	default:
		die(fmt.Errorf("unknown -sweep %q (want %s)", name, sweepNames))
	}
	elapsed := time.Since(start)
	fmt.Printf("sweep %s: %d trials, %d workers, wall %v, %.2f trials/sec\n",
		name, r.Trials(), workers, elapsed.Round(time.Millisecond),
		float64(r.Trials())/elapsed.Seconds())
}

// must returns v, or exits on err.
func must[T any](v T, err error) T {
	if err != nil {
		die(err)
	}
	return v
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "hawkeye-sim:", err)
	os.Exit(1)
}
