// Command benchmark is the repository's end-to-end benchmark: the
// reproduction path (trials per second through experiments.RunTrial),
// the service path (report -> verdict through an analyzd session) and
// the fleet path (write -> durable, replicated, queryable incident),
// each with a per-layer ledger taken from a traced run. README.md in
// this directory describes the workloads, the metrics and how to read
// the output; BENCHMARK.json at the repository root is the contract.
//
// Servers run in-process and are reached over real loopback TCP: the
// numbers contain socket and syscall cost but no link.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// bench is one workload's lifecycle. setup builds the inputs from the
// seed, brings servers up and warms them; measure runs ops for about d
// (whole ops only), with spans going to tr when it is non-nil and, when
// replay is set, every n-th op's input also fed through each layer
// directly; teardown closes everything behind a drain barrier and
// returns the oracle violations only visible after it.
type bench interface {
	setup() error
	measure(d time.Duration, tr *tracer, replay bool) *window
	teardown() []string
	// layers turns a traced window into per-layer metrics and prints
	// the workload's ledger.
	layers(w *window, tr *tracer, m map[string]float64)
}

// window is what one measure call observed.
type window struct {
	ops      int           // operations the closed-loop client attempted
	sideOps  int           // operations the paced client beside it attempted
	failed   int           // failed, refused, shed or wrong operations
	wall     time.Duration // time the ops took
	opMS     []float64     // per-op end-to-end latency, ms
	allocB   uint64        // MemStats.TotalAlloc delta
	gcFrac   float64       // share of the available CPU time the GC used
	replayed int           // ops whose input was also replayed per layer
	problems []string      // oracle violations, first few
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.problems) < 5 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// meter accounts a window's allocation and GC time. What the replays
// between ops allocate is left out, so traced and untraced windows
// count the same work.
type meter struct {
	start    time.Time
	gc0      float64
	alloc0   uint64
	excluded uint64
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func startMeter() *meter {
	return &meter{start: time.Now(), gc0: gcCPUSeconds(), alloc0: totalAlloc()}
}

// excluding runs fn without counting what it allocates.
func (m *meter) excluding(fn func()) {
	before := totalAlloc()
	fn()
	m.excluded += totalAlloc() - before
}

func (m *meter) stop(w *window) {
	w.allocB = totalAlloc() - m.alloc0 - m.excluded
	w.gcFrac = (gcCPUSeconds() - m.gc0) / time.Since(m.start).Seconds() / float64(runtime.GOMAXPROCS(0))
}

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds float64
	dir     string // scratch directory for durable state, inside the checkout
	tiny    bool   // test mode: smallest inputs that still exercise every path
}

type workloadDef struct {
	name string
	why  string
	make func(cfg config) bench
}

var workloads = []workloadDef{
	{"repro_storm", "thousands of complaint sessions per trial, so core.DiagnoseAll and provenance.Build do most of the work",
		func(c config) bench { return newRepro(c, stormList) }},
	{"repro_incast", "under 120 sessions per trial, so the simulation substrate is ~99% of a trial and provenance.Build is bypassed",
		func(c config) bench { return newRepro(c, incastList) }},
	{"svc_first_complaint", "every verdict carries its ~12 KB report set, so wire frame, decode and validate sit on the blocking path",
		func(c config) bench { return newSvc(c, 1) }},
	{"svc_complaint_storm", "reports are sent once per 64 verdicts, so Build, Diagnose, render and reply JSON dominate and decode is bypassed",
		func(c config) bench { return newSvc(c, 64) }},
	{"fleet_mixed", "semi-sync durable writes with read-back beside a paced fleet-wide rollup reader on the same three shards",
		func(c config) bench { return newFleet(c, false) }},
	{"fleet_read", "closed-loop fleet-wide rollup queries and no writes, so sketch JSON and window merging dominate and the WAL is bypassed",
		func(c config) bench { return newFleet(c, true) }},
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// runOut is one run's result: the driver's four keys plus bookkeeping.
// EndToEnd is always filled (from the untraced window); Layers only by
// a traced run.
type runOut struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layers    map[string]float64 `json:"per_layer,omitempty"`
}

func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runWorkload sets up (setupRuns times), measures and tears down one
// workload. With trace off the whole window is untraced. With trace on
// it has three parts: a third untraced, a sixth with spans only — the
// throughput difference between those two is the tracing overhead — and
// half with spans and per-layer replays, which gives the per-layer
// metrics and the ledger. The spans go under cfg.dir.
func runWorkload(def workloadDef, cfg config, trace bool) (*runOut, error) {
	out := &runOut{Workload: def.name, Seed: cfg.seed, EndToEnd: make(map[string]float64)}
	var problems []string
	var b bench
	var setups []float64
	runs := setupRuns
	if cfg.tiny {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		if b != nil {
			problems = append(problems, b.teardown()...)
		}
		settle()
		b = def.make(cfg)
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("%s: setup: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	plainFor := total
	var tr *tracer
	if trace {
		plainFor = total / 3
		// The span buffer exists from here on, so the untraced part runs
		// with the same live heap, and so the same GC pacing, as the
		// traced parts it is compared with.
		tr = newTracer()
	}
	plain := b.measure(plainFor, nil, false)
	problems = append(problems, plain.problems...)
	out.Attempted, out.Failed = plain.ops+plain.sideOps, plain.failed
	out.EndToEnd["setup_s"] = median(setups)
	out.EndToEnd["ops_per_s"] = float64(plain.ops) / plain.wall.Seconds()
	out.EndToEnd["op_p50_ms"] = median(plain.opMS)
	out.EndToEnd["alloc_kb_per_op"] = float64(plain.allocB) / 1024 / float64(plain.ops)
	hp := highestPercentile(len(plain.opMS))
	fmt.Printf("  untraced: %d ops in %.2fs (+%d beside), %d failed; op p50 %.3f ms, p%g %.3f ms (n=%d)\n",
		plain.ops, plain.wall.Seconds(), plain.sideOps, plain.failed, median(plain.opMS), hp, percentile(plain.opMS, hp), len(plain.opMS))
	if !trace {
		problems = append(problems, b.teardown()...)
	} else {
		spans := b.measure(total/6, tr, false)
		w := b.measure(total/2, tr, true)
		problems = append(problems, spans.problems...)
		problems = append(problems, w.problems...)
		// Teardown first: the counters behind the must-be-zero metrics
		// are only final behind the servers' drain barrier.
		problems = append(problems, b.teardown()...)
		out.Trace = 1
		out.Attempted += spans.ops + spans.sideOps + w.ops + w.sideOps
		out.Failed += spans.failed + w.failed
		out.Layers = make(map[string]float64)
		fmt.Printf("  spans only: %d ops in %.2fs; spans and replays: %d ops in %.2fs, %d of them replayed per layer\n",
			spans.ops, spans.wall.Seconds(), w.ops, w.wall.Seconds(), w.replayed)
		b.layers(w, tr, out.Layers)
		out.Layers["process.alloc_kb_per_op"] = float64(w.allocB) / 1024 / float64(w.ops)
		out.Layers["process.gc_cpu_frac"] = w.gcFrac
		out.Layers["process.tracing_overhead_frac"] = 1 - (float64(spans.ops)/spans.wall.Seconds())/(float64(plain.ops)/plain.wall.Seconds())
		path := filepath.Join(cfg.dir, "trace-"+def.name+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("%s: write spans: %w", def.name, err)
		}
		fmt.Printf("  %d spans written to %s (%d dropped once the buffer was full)\n", len(tr.spans), path, tr.dropped)
	}
	for _, p := range problems {
		fmt.Printf("  ORACLE: %s\n", p)
	}
	if len(problems) > 0 && out.Failed == 0 {
		out.Failed = len(problems)
	}
	out.Correct = len(problems) == 0 && out.Failed == 0
	return out, nil
}

// emit prints every metric by name with its unit, then (for a single
// workload) the driver's result line.
func emit(out *runOut, defs []metricDef, values map[string]float64) map[string]any {
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v := values[d.Name] // a layer the workload does not touch reads 0
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Printf("  %-36s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for name := range values {
		if !hasMetric(defs, name) {
			panic("benchmark: metric " + name + " is not declared in metrics.go")
		}
	}
	return map[string]any{"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": metrics}
}

func header(cfg config) {
	fmt.Printf("hawkeye benchmark: %s, nproc=%d, GOMAXPROCS=%d, -seed=%d, -dir=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.dir)
	fmt.Printf("servers run in-process over loopback TCP (127.0.0.1): sockets and syscalls are measured, a link is not\n")
	if floor, err := walNoiseFloor(cfg.dir); err != nil {
		fmt.Printf("wal.append_p50_ms noise floor: unavailable (%v)\n", err)
	} else {
		fmt.Printf("wal.append_p50_ms noise floor in -dir (idle, one appender, synchronous): %.3f ms\n", floor)
	}
	// The WAL's group-commit window and both semi-sync ack polls are
	// 200 µs sleeps; what such a sleep really takes here bounds them.
	var naps []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		time.Sleep(200 * time.Microsecond)
		naps = append(naps, time.Since(t0).Seconds()*1e3)
	}
	fmt.Printf("time.Sleep(200µs) noise floor: %.3f ms\n", median(naps))
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all, untraced then traced)")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 does the traced run: per-layer metrics, ledger, spans under -dir")
		dir     = flag.String("dir", filepath.Join("benchmark", "out"), "scratch directory for durable shards, spans and -out results")
		outDir  = flag.String("out", "", "also write each run's result as JSON into this directory (input of -compare)")
		compare = flag.Bool("compare", false, "judge two result directories: -compare A B")
	)
	flag.Parse()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result directories")
			os.Exit(2)
		}
		os.Exit(compareSets(spec, flag.Arg(0), flag.Arg(1)))
	}
	if raceEnabled {
		fmt.Fprintln(os.Stderr, "benchmark: built with -race; timings from a race build are not reported")
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, dir: *dir}
	header(cfg)

	var defs []workloadDef
	for _, d := range workloads {
		if *name == "" || d.name == *name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	traces := []bool{*trace != 0}
	if *name == "" {
		traces = []bool{false, true}
	}
	ok := true
	var last map[string]any
	for _, d := range defs {
		for _, tr := range traces {
			fmt.Printf("\n== %s (trace=%v, %gs): %s\n", d.name, tr, cfg.seconds, d.why)
			out, err := runWorkload(d, cfg, tr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			if tr {
				last = emit(out, perLayer, out.Layers)
			} else {
				last = emit(out, endToEnd, out.EndToEnd)
			}
			ok = ok && out.Correct
			if *outDir != "" {
				if err := writeResult(*outDir, out); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					os.Exit(1)
				}
			}
			settle()
		}
	}
	if *name != "" {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: an oracle failed (see ORACLE lines)")
		os.Exit(1)
	}
}

func writeResult(dir string, out *runOut) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", out.Workload, out.Seed, out.Trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
