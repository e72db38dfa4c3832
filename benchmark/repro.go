package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/experiments"
	"hawkeye/internal/metrics"
	"hawkeye/internal/provenance"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

// A trial list is a set of scenarios and a number of rounds; round r
// runs one trial of each scenario with trial seed reproBaseSeed+r, so
// any stretch of the list has the same scenario mix. The lists are
// sized to take a little less than one window on a 2-core box.
type trialList struct {
	scenarios []string
	rounds    int
}

var (
	stormList  = trialList{[]string{workload.NameStorm, workload.NameInLoop, workload.NameOutLoopInject}, 6}
	incastList = trialList{[]string{workload.NameIncast, workload.NameNormal, workload.NameSlowReceiver}, 16}
)

// reproBaseSeed fixes the population of trials; -seed only picks the
// round a run starts the (cyclic) list at. A trial's cost moves ±13%
// with its seed, and a window holds some twenty storm trials: lists
// drawn afresh from -seed differed by ±7% in trials per second from one
// -seed to the next, which no 10% bound can be read against.
const reproBaseSeed = 1000

const (
	// reproReplayEvery: every n-th trial of a traced window is replayed
	// per layer. A replay costs about a trial, so it is sparser than the
	// service workloads' 1-in-16 would be in trials but denser in ops.
	reproReplayEvery = 4
	// sessionSampleEvery: of a replayed trial's sessions, every n-th is
	// rebuilt and rediagnosed.
	sessionSampleEvery = 16
	// maxTrialSnapshots is how many full-fabric snapshots RunTrial takes
	// at most (one per ground-truth trigger, experiments/trial.go).
	maxTrialSnapshots = 65
)

// repro is the reproduction path: experiments.RunTrial at the paper's
// default operating point, serially on one goroutine, round after round
// of its trial list until the window is over.
type repro struct {
	cfg       config
	scenarios []string
	rounds    int
	round     int // next round; the trial list is cyclic

	// traced-window observations the layer metrics are made of
	trialMS, packets, pfcFrames, sessions []float64
	correct                               int
	replays                               []reproReplay
	buildKB, buildAllocs                  []float64
}

// reproReplay is one replayed trial's decomposition, in ms.
type reproReplay struct {
	trialMS, diagnoseAllMS, scoreMS float64
	snapshotUS                      float64 // mean of one State.Snapshot
	snapshots                       int     // Snapshot calls RunTrial made
	packets                         float64
	sessions, reports               int
	buildUS, hostUS, diagnoseUS     []float64
}

func newRepro(cfg config, list trialList) bench {
	r := &repro{cfg: cfg, scenarios: list.scenarios, rounds: list.rounds}
	if cfg.tiny {
		r.scenarios = r.scenarios[:1]
	}
	r.round = int(cfg.seed % uint64(r.rounds))
	return r
}

func (r *repro) trialConfig(round, i int) experiments.TrialConfig {
	return experiments.DefaultTrialConfig(r.scenarios[i], reproBaseSeed+uint64(round%r.rounds))
}

// setup warms the heap with one trial outside the measured list.
func (r *repro) setup() error {
	if r.cfg.tiny {
		return nil
	}
	_, err := experiments.RunTrial(experiments.DefaultTrialConfig(r.scenarios[0], reproBaseSeed+uint64(r.rounds)))
	return err
}

func (r *repro) teardown() []string { return nil }

// verdictDigest folds what a trial concluded — type, cause, node, port
// and confidence of every result — into one number. The replay contract
// says the same config gives the same digest.
func verdictDigest(results []*core.Result) uint64 {
	h := fnv.New64a()
	for _, res := range results {
		c := res.Diagnosis.PrimaryCause()
		fmt.Fprintf(h, "%d/%d/%d/%d/%d;", res.Diagnosis.Type, c.Kind, c.Port.Node, c.Port.Port, res.Diagnosis.Confidence)
	}
	return h.Sum64()
}

// trialCost is what the window saw of one trial of the list: its runs'
// total time and allocation. The window may reach a trial twice.
type trialCost struct {
	runs   int
	ms     float64
	allocB uint64
}

func (r *repro) measure(d time.Duration, tr *tracer, replay bool) *window {
	w := &window{}
	m := startMeter()
	firstRound, firstDigest := r.round, uint64(0)
	costs := make(map[int][]trialCost) // list round -> per scenario
	op := 0
	for elapsed := time.Duration(0); elapsed < d; {
		lr := r.round % r.rounds
		if costs[lr] == nil {
			costs[lr] = make([]trialCost, len(r.scenarios))
		}
		for i := range r.scenarios {
			cfg := r.trialConfig(r.round, i)
			alloc0 := totalAlloc()
			root := tr.begin("experiments.RunTrial", -1, op, false)
			t0 := time.Now()
			trial, err := experiments.RunTrial(cfg)
			dt := time.Since(t0)
			tr.end(root)
			c := &costs[lr][i]
			c.runs++
			c.ms += dt.Seconds() * 1e3
			c.allocB += totalAlloc() - alloc0
			w.ops++
			elapsed += dt
			if err != nil {
				w.fail("%s seed %d: %v", cfg.Scenario, cfg.Seed, err)
				op++
				continue
			}
			if op == 0 {
				firstDigest = verdictDigest(trial.Results)
			}
			if tr != nil {
				r.observe(trial, dt)
				if replay && op%reproReplayEvery == 0 {
					r.replay(trial, dt, tr, root, op)
					w.replayed++
				}
			}
			op++
		}
		r.round++
		if r.cfg.tiny {
			break
		}
	}
	// Every trial of the list weighs once, however often the window
	// reached it: a window a little longer than the list then measures
	// the same population whichever round it started at. wall and allocB
	// are scaled back to the number of trials run, so ops/wall is trials
	// per second over the list.
	distinct, listMS, listAlloc := 0, 0.0, 0.0
	for _, round := range costs {
		roundMS := 0.0
		for _, c := range round {
			distinct++
			roundMS += c.ms / float64(c.runs)
			listAlloc += float64(c.allocB) / float64(c.runs)
		}
		listMS += roundMS
		w.opMS = append(w.opMS, roundMS/float64(len(round)))
	}
	m.stop(w) // for the GC share; the allocation is the list's, below
	scale := float64(w.ops) / float64(distinct)
	w.wall = time.Duration(listMS * scale * float64(time.Millisecond))
	w.allocB = uint64(listAlloc * scale)

	// Replay contract: the window's first trial, run again, concludes the
	// same. No golden file: a change may move verdicts, but not between
	// two runs of one config.
	again, err := experiments.RunTrial(r.trialConfig(firstRound, 0))
	if err != nil {
		w.fail("re-run of the first trial: %v", err)
	} else if got := verdictDigest(again.Results); got != firstDigest {
		w.fail("replay contract broken: first trial's verdict digest %x, re-run %x", firstDigest, got)
	}
	return w
}

func (r *repro) observe(trial *experiments.Trial, dt time.Duration) {
	r.trialMS = append(r.trialMS, dt.Seconds()*1e3)
	r.packets = append(r.packets, float64(trial.Stats.DataPackets))
	r.pfcFrames = append(r.pfcFrames, float64(trial.Cl.TotalPFCFrames()))
	r.sessions = append(r.sessions, float64(len(trial.Results)))
	if trial.Score.Correct {
		r.correct++
	}
}

// replay feeds the finished trial back through each stage RunTrial ran
// after (or beside) the simulation, one public call at a time.
func (r *repro) replay(trial *experiments.Trial, dt time.Duration, tr *tracer, root, op int) {
	rp := reproReplay{trialMS: dt.Seconds() * 1e3, packets: float64(trial.Stats.DataPackets)}
	sys, t := trial.Sys, trial.Cl.Topo

	var results []*core.Result
	rp.diagnoseAllMS = tr.replayed("core.System.DiagnoseAll", root, op, func() { results = sys.DiagnoseAll() }).Seconds() * 1e3
	rp.scoreMS = tr.replayed("metrics.ScoreResults", root, op, func() {
		metrics.ScoreResults(metrics.DefaultScoreConfig(), results, trial.GT, t)
	}).Seconds() * 1e3

	// RunTrial snapshots every switch at each ground-truth trigger, up
	// to maxTrialSnapshots triggers.
	triggers := 0
	for _, trig := range sys.Triggers() {
		if trial.GT.Victims[trig.Victim] {
			triggers++
		}
	}
	if triggers > maxTrialSnapshots {
		triggers = maxTrialSnapshots
	}
	rp.snapshots = triggers * len(sys.Tels)
	ids := make([]topo.NodeID, 0, len(sys.Tels))
	for id := range sys.Tels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		rp.snapshotUS += tr.replayed("telemetry.State.Snapshot", root, op, func() { sys.Tels[id].Snapshot(trial.Cfg.NumEpochs) }).Seconds() * 1e6
	}
	rp.snapshotUS /= float64(len(ids))

	// Every sessionSampleEvery-th session, in DiagID order, goes through
	// Build, host-report admission and Diagnose again.
	sessions := sys.Sessions()
	rp.sessions = len(sessions)
	diagIDs := make([]uint32, 0, len(sessions))
	for id, s := range sessions {
		diagIDs = append(diagIDs, id)
		rp.reports += len(s.Reports)
	}
	sort.Slice(diagIDs, func(i, j int) bool { return diagIDs[i] < diagIDs[j] })
	pcfg := provenance.DefaultConfig(t.LinkBandwidth, int64(sys.Cfg.Telemetry.EpochSize()))
	pcfg.BurstRateFrac, pcfg.BurstMaxEpochs = sys.Cfg.BurstRateFrac, sys.Cfg.BurstMaxEpochs
	var sampled [][]*telemetry.Report
	for i := 0; i < len(diagIDs); i += sessionSampleEvery {
		s := sessions[diagIDs[i]]
		reports := sortedReports(s.Reports)
		hosts := sortedHostReports(s.HostReports)
		sampled = append(sampled, reports)
		var g *provenance.Graph
		d := tr.replayed("provenance.Build", root, op, func() { g = provenance.Build(pcfg, reports, t) })
		rp.buildUS = append(rp.buildUS, d.Seconds()*1e6)
		d = tr.replayed("provenance.Graph.AddHostReport", root, op, func() {
			for _, hr := range hosts {
				g.AddHostReport(hr, t)
			}
		})
		rp.hostUS = append(rp.hostUS, d.Seconds()*1e6)
		d = tr.replayed("diagnosis.Diagnose", root, op, func() { diagnosis.Diagnose(sys.Cfg.Diagnosis, g, t, s.Trigger.Victim) })
		rp.diagnoseUS = append(rp.diagnoseUS, d.Seconds()*1e6)
	}
	// Allocation cost of Build, from a second pass with nothing else
	// running between the two MemStats reads.
	if len(sampled) > 0 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, reports := range sampled {
			provenance.Build(pcfg, reports, t)
		}
		runtime.ReadMemStats(&m1)
		r.buildKB = append(r.buildKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(len(sampled)))
		r.buildAllocs = append(r.buildAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(sampled)))
	}
	r.replays = append(r.replays, rp)
}

func sortedReports(m map[topo.NodeID]*telemetry.Report) []*telemetry.Report {
	out := make([]*telemetry.Report, 0, len(m))
	for _, rep := range m {
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Switch < out[j].Switch })
	return out
}

func sortedHostReports(m map[topo.NodeID]*telemetry.HostReport) []*telemetry.HostReport {
	out := make([]*telemetry.HostReport, 0, len(m))
	for _, hr := range m {
		out = append(out, hr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

func (r *repro) layers(w *window, tr *tracer, m map[string]float64) {
	m["experiments.trial_ms_p50"] = median(r.trialMS)
	m["experiments.correct_frac"] = float64(r.correct) / float64(len(r.trialMS))
	m["sim.data_packets_per_trial"] = mean(r.packets)
	m["sim.pfc_frames_per_trial"] = mean(r.pfcFrames)
	m["core.sessions_per_trial"] = mean(r.sessions)
	if len(r.replays) == 0 {
		return
	}
	var trial, diagAll, score, snapUS, snapMS, substrate, packets, sessions, reports float64
	var buildUS, hostUS, diagUS []float64
	var buildPerTrial, hostPerTrial, diagPerTrial float64
	for _, rp := range r.replays {
		trial += rp.trialMS
		diagAll += rp.diagnoseAllMS
		score += rp.scoreMS
		snapUS += rp.snapshotUS
		ms := rp.snapshotUS * float64(rp.snapshots) / 1e3
		snapMS += ms
		substrate += rp.trialMS - rp.diagnoseAllMS - rp.scoreMS - ms
		packets += rp.packets
		sessions += float64(rp.sessions)
		reports += float64(rp.reports)
		buildUS = append(buildUS, rp.buildUS...)
		hostUS = append(hostUS, rp.hostUS...)
		diagUS = append(diagUS, rp.diagnoseUS...)
		buildPerTrial += mean(rp.buildUS) * float64(rp.sessions) / 1e3
		hostPerTrial += mean(rp.hostUS) * float64(rp.sessions) / 1e3
		diagPerTrial += mean(rp.diagnoseUS) * float64(rp.sessions) / 1e3
	}
	n := float64(len(r.replays))
	m["core.diagnose_all_ms_per_trial"] = diagAll / n
	m["core.reports_per_session"] = reports / sessions
	m["metrics.score_ms_per_trial"] = score / n
	m["telemetry.snapshot_us"] = snapUS / n
	m["sim.substrate_ms_per_trial"] = substrate / n
	m["sim.us_per_data_packet"] = substrate * 1e3 / packets
	m["provenance.build_us_p50"] = median(buildUS)
	m["provenance.build_ms_per_trial"] = buildPerTrial / n
	m["provenance.build_kb_per_call"] = mean(r.buildKB)
	m["provenance.build_allocs_per_call"] = mean(r.buildAllocs)
	m["diagnosis.diagnose_us_p50"] = median(diagUS)

	// The ledger is over the replayed trials only, so it sums exactly:
	// the substrate is defined as what the replayed stages leave.
	inside := "inside core.System.DiagnoseAll"
	rows := []ledgerRow{
		{span: "telemetry.State.Snapshot", onPath: true},
		{span: "core.System.DiagnoseAll", onPath: true},
		{span: "provenance.Build", note: inside},
		{span: "provenance.Graph.AddHostReport", note: inside},
		{span: "diagnosis.Diagnose", note: inside},
		{span: "metrics.ScoreResults", onPath: true},
	}
	perOp := map[string]float64{
		"telemetry.State.Snapshot":       snapMS / n * 1e3,
		"core.System.DiagnoseAll":        diagAll / n * 1e3,
		"provenance.Build":               buildPerTrial / n * 1e3,
		"provenance.Graph.AddHostReport": hostPerTrial / n * 1e3,
		"diagnosis.Diagnose":             diagPerTrial / n * 1e3,
		"metrics.ScoreResults":           score / n * 1e3,
	}
	printLedger(fmt.Sprintf("one trial, mean of %d replayed", len(r.replays)), trial/n*1e3, rows, perOp,
		"sim substrate (remainder)")
}
