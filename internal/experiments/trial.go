// Package experiments drives the paper's evaluation (§4): one driver per
// table/figure, all built on a shared trial runner that constructs the
// fat-tree K=4 cluster, installs Hawkeye, crafts a scenario with ground
// truth, runs the trace, and scores every compared system.
package experiments

import (
	"sort"

	"hawkeye/internal/baselines"
	"hawkeye/internal/chaos"
	"hawkeye/internal/cluster"
	"hawkeye/internal/core"
	"hawkeye/internal/host"
	"hawkeye/internal/metrics"
	"hawkeye/internal/netsight"
	"hawkeye/internal/packet"
	"hawkeye/internal/pfcwd"
	"hawkeye/internal/sim"
	"hawkeye/internal/spidermon"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

// TrialConfig parametrizes one trace.
type TrialConfig struct {
	Scenario string
	Seed     uint64
	// EpochBits is log2 of the telemetry epoch (Fig. 7 sweeps 17..21,
	// i.e. ~131 µs .. ~2.1 ms, the paper's 100 µs – 2 ms range).
	EpochBits uint
	NumEpochs int
	// RTTFactor is the detection threshold (200%–500% RTT -> 2..5).
	RTTFactor float64
	// Load adds Poisson background traffic (0 disables).
	Load float64
	// XoffBytes overrides the switch PFC threshold (0 = default). The
	// normal-contention scenario uses deep-buffer thresholds so transient
	// contention stays below PFC, per its ground truth.
	XoffBytes int
	// DisableECN turns DCQCN marking off: the normal-contention case
	// needs standing queues to be visible in RTT rather than absorbed
	// into silent rate cuts.
	DisableECN bool
	// EdgeFlowTelemetryOnly deploys the flow tables only on edge (ToR)
	// switches — the §5 partial-deployment option. PFC causality analysis
	// remains fabric-wide.
	EdgeFlowTelemetryOnly bool
	// MeasureBaselines additionally installs the mechanistic SpiderMon
	// (in-band delay headers) and NetSight (postcards) instruments, so
	// their measured overheads can be checked against the Fig. 9 cost
	// models.
	MeasureBaselines bool
	// Chaos composes fault injection across the whole pipeline
	// (internal/chaos); nil runs the trial clean.
	Chaos *chaos.Schedule
	// ChaosSeed drives every chaos decision (0 derives from Seed, so a
	// trial's identity stays one number unless the sweep needs
	// independent fault draws).
	ChaosSeed uint64
	// DisableHostAgents turns the host-agent counter channel off: no NIC
	// snapshots are taken at triggers, so host-vs-network attribution
	// runs blind (the degraded-mode ablation).
	DisableHostAgents bool
	// EnableWatchdog attaches a PFC storm watchdog to every switch:
	// mitigation running alongside diagnosis (§2.2 — operators deploy
	// both; the diagnosis must survive the mitigation's evidence
	// destruction).
	EnableWatchdog bool
	// pollDedup overrides the polling dedup window (ablations).
	pollDedup *sim.Time
}

// DefaultTrialConfig returns the paper's default operating point for a
// scenario.
func DefaultTrialConfig(scenario string, seed uint64) TrialConfig {
	cfg := TrialConfig{
		Scenario:  scenario,
		Seed:      seed,
		EpochBits: 17,
		NumEpochs: 4,
		RTTFactor: 2,
		Load:      0.03,
	}
	if scenario == workload.NameOutLoopBurst {
		// The out-of-loop contention initiator must hold its port
		// overloaded long enough for the pause cycle to wrap; with DCQCN
		// active the incast is tamed within ~200 µs and the cycle never
		// locks. A deadlock-from-contention presupposes congestion
		// control failing to defuse the initiator (§2.1).
		cfg.DisableECN = true
	}
	if scenario == workload.NameNormal {
		// Sub-PFC queueing inflates RTT far less than pausing does; the
		// paper tunes thresholds per deployment (§5). Deep-buffer Xoff
		// keeps the crafted contention below the PFC trigger.
		cfg.RTTFactor = 1.5
		cfg.Load = 0 // background would blur the no-PFC ground truth
		cfg.XoffBytes = 256 * 1024
		cfg.DisableECN = true
	}
	return cfg
}

// Trial is a completed trace with everything the figures need.
type Trial struct {
	Cfg     TrialConfig
	GT      *workload.GroundTruth
	Cl      *cluster.Cluster
	FT      *topo.FatTree
	Sys     *core.System
	Results []*core.Result
	Score   metrics.TrialScore

	// Chaos is the installed fault-injection engine (nil on clean runs);
	// its counters account for every injected fault of the trace.
	Chaos *chaos.Engine

	View  baselines.View
	Stats baselines.TraceStats

	// Measured baseline overheads (set when Cfg.MeasureBaselines).
	MeasuredSpiderMonBytes uint64
	MeasuredNetSightBytes  uint64

	// Watchdogs are the per-switch mitigation instances (set when
	// Cfg.EnableWatchdog).
	Watchdogs []*pfcwd.Watchdog

	// allSnaps holds a full-fabric snapshot per ground-truth trigger, so
	// baseline comparisons can use the state AT the scored complaint.
	allSnaps []fabricSnap
}

// fabricSnap is one all-switch snapshot.
type fabricSnap struct {
	at      sim.Time
	reports map[topo.NodeID]*telemetry.Report
}

// RunTrial builds, runs and scores one trace.
func RunTrial(cfg TrialConfig) (*Trial, error) {
	build, err := workload.ByName(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	ft, err := topo.NewFatTree(4)
	if err != nil {
		return nil, err
	}
	routing := topo.ComputeRouting(ft.Topology)

	ccfg := cluster.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Host.Agent.RTTFactor = cfg.RTTFactor
	if cfg.XoffBytes > 0 {
		ccfg.Switch.XoffBytes = cfg.XoffBytes
		ccfg.Switch.XonBytes = cfg.XoffBytes / 2
		// Deep-buffer switches also run proportionally deeper ECN ramps;
		// otherwise DCQCN clamps queues far below the new threshold and
		// the crafted contention never materializes.
		ccfg.Switch.KminBytes = cfg.XoffBytes / 4
		ccfg.Switch.KmaxBytes = cfg.XoffBytes
	}
	if cfg.DisableECN {
		ccfg.Switch.EnableECN = false
	}
	cl := cluster.New(ft.Topology, routing, ccfg)

	score := core.DefaultConfig()
	score.Telemetry.EpochBits = cfg.EpochBits
	score.Telemetry.NumEpochs = cfg.NumEpochs
	score.HostTelemetry = !cfg.DisableHostAgents
	if cfg.pollDedup != nil {
		score.Polling.Dedup = *cfg.pollDedup
	}
	if cfg.EdgeFlowTelemetryOnly {
		edges := make(map[topo.NodeID]bool)
		for _, pod := range ft.Edge {
			for _, id := range pod {
				edges[id] = true
			}
		}
		score.FlowTelemetryAt = func(id topo.NodeID) bool { return edges[id] }
	}
	// Register values are captured at sync start, so the CPU poller
	// latency does not change diagnosis content (§3.4); shrink it so the
	// horizon is dominated by the trace, not by idle DMA waits. The real
	// latency model is evaluated by BenchmarkPollerLatencyModel.
	score.Collect.BaseLatency = 200 * sim.Microsecond
	score.Collect.PerEpochLatency = 50 * sim.Microsecond
	sys, err := core.Install(cl, score)
	if err != nil {
		return nil, err
	}

	tr := &Trial{Cfg: cfg, Cl: cl, FT: ft, Sys: sys}

	// Fault injection: every fault runs off one seeded engine and one
	// accounting surface.
	if sched := cfg.Chaos; sched != nil && !sched.IsZero() {
		chaosSeed := cfg.ChaosSeed
		if chaosSeed == 0 {
			chaosSeed = cfg.Seed ^ 0x1055
		}
		tr.Chaos, err = chaos.Install(cl, sys, *sched, chaosSeed)
		if err != nil {
			return nil, err
		}
	}

	var smons map[topo.NodeID]*spidermon.Instrument
	var nstore *netsight.Store
	if cfg.MeasureBaselines {
		smons = spidermon.InstallAll(cl.Switches, spidermon.DefaultConfig(), cl.Eng.Now, nil)
		nstore = netsight.NewStore()
		netsight.InstallAll(cl.Switches, nstore)
	}
	if cfg.EnableWatchdog {
		// Sorted attach order: watchdog polls of different switches land on
		// the same timestamps, and event order at equal times follows
		// scheduling order — map iteration here would break determinism.
		ids := make([]topo.NodeID, 0, len(cl.Switches))
		for id := range cl.Switches {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			w, err := pfcwd.Attach(cl.Eng, cl.Switches[id], pfcwd.DefaultConfig())
			if err != nil {
				return nil, err
			}
			tr.Watchdogs = append(tr.Watchdogs, w)
		}
	}

	params := workload.Params{EpochSize: score.Telemetry.EpochSize()}
	gt := build(cl, ft, params)
	tr.GT = gt

	if cfg.Load > 0 {
		bg := &workload.Background{
			Load:  cfg.Load,
			CDF:   workload.PaperCDF(workload.DefaultScaleDivisor),
			Start: 0,
			Stop:  gt.AnomalyAt + 8*sim.Millisecond,
		}
		bg.Install(cl, sim.NewRand(cfg.Seed^0xBEEF))
	}

	// Take a full-fabric snapshot at every ground-truth trigger: the
	// baselines are evaluated on the state at the SAME instant as the
	// scored complaint.
	sys.OnTrigger = func(t host.Trigger) {
		if !gt.Victims[t.Victim] || len(tr.allSnaps) > 64 {
			return
		}
		// Sorted snapshot order: Snapshot draws from the chaos telemetry
		// fault stream, so map iteration here would consume it in a
		// different order every run and break fault replay.
		ids := make([]topo.NodeID, 0, len(sys.Tels))
		for id := range sys.Tels {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		all := make(map[topo.NodeID]*telemetry.Report, len(ids))
		for _, id := range ids {
			all[id] = sys.Tels[id].Snapshot(cfg.NumEpochs)
		}
		tr.allSnaps = append(tr.allSnaps, fabricSnap{at: cl.Eng.Now(), reports: all})
	}

	// The run ends 15 ms after the anomaly starts.
	cl.Run(gt.AnomalyAt + 15*sim.Millisecond)

	tr.Results = sys.DiagnoseAll()
	tr.Score = metrics.ScoreResults(metrics.DefaultScoreConfig(), tr.Results, gt, cl.Topo)

	if cfg.MeasureBaselines {
		for _, in := range smons {
			tr.MeasuredSpiderMonBytes += in.InBandBytes
		}
		tr.MeasuredNetSightBytes = nstore.Bytes
	}

	// Fill the view from the scored session: traced reports, and the
	// all-switch snapshot taken at the scored trigger instant.
	tr.View.Traced = make(map[topo.NodeID]*telemetry.Report)
	if tr.Score.Result != nil {
		if s, ok := sys.Sessions()[tr.Score.Result.Trigger.DiagID]; ok {
			for id, rep := range s.Reports {
				tr.View.Traced[id] = rep
			}
		}
		at := tr.Score.Result.Trigger.At
		for i := range tr.allSnaps {
			if tr.allSnaps[i].at == at {
				tr.View.AllSwitches = tr.allSnaps[i].reports
				break
			}
		}
		tr.View.VictimPath = core.VictimPath(cl.Routing, cl.Topo, tr.Score.Result.Trigger.Victim)
	}
	if tr.View.AllSwitches == nil && len(tr.allSnaps) > 0 {
		tr.View.AllSwitches = tr.allSnaps[0].reports
	}
	tr.Stats = tr.traceStats()
	return tr, nil
}

// traceStats summarizes the trace for the overhead models.
func (tr *Trial) traceStats() baselines.TraceStats {
	var ts baselines.TraceStats
	flows := 0
	for _, h := range tr.Cl.Hosts {
		ts.DataPackets += h.TxDataPackets
		flows += len(h.Flows())
	}
	ts.Flows = flows
	ts.PollingBytes = tr.Cl.Net.PollingBytes
	ts.Diagnoses = len(tr.Sys.Triggers())
	ts.AvgHops = tr.avgHops()
	ts.VictimPathLen = len(tr.View.VictimPath)
	return ts
}

// avgHops averages switch-hop counts over the scenario's labelled flows.
func (tr *Trial) avgHops() float64 {
	total, n := 0, 0
	count := func(set map[packet.FiveTuple]bool) {
		for ft := range set {
			if hops := len(core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, ft)); hops > 0 {
				total += hops
				n++
			}
		}
	}
	count(tr.GT.Victims)
	count(tr.GT.Culprits)
	if n == 0 {
		return 4 // fat-tree K=4 average
	}
	return float64(total) / float64(n)
}

// BaselineScore diagnoses the trial from one baseline's view and scores
// it against the ground truth.
func (tr *Trial) BaselineScore(kind baselines.Kind) metrics.TrialScore {
	if kind == baselines.KindHawkeye {
		return tr.Score
	}
	if tr.Score.Result == nil {
		return metrics.TrialScore{Reason: "no trigger"}
	}
	return tr.rescore(kind.Reports(tr.View))
}

// rescore assesses the scored complaint again from another view's
// switch reports and scores that verdict. The view carries no host-agent
// snapshots, so host-facing verdicts grade as uncorroborated.
func (tr *Trial) rescore(reports []*telemetry.Report) metrics.TrialScore {
	trigger := tr.Score.Result.Trigger
	g, d := core.Assess(core.Evidence{
		Topo:    tr.Cl.Topo,
		Prov:    tr.Sys.ProvConfig(),
		Diag:    tr.Sys.Cfg.Diagnosis,
		Victim:  trigger.Victim,
		Path:    tr.View.VictimPath,
		Reports: reports,
	})
	res := &core.Result{Trigger: trigger, Graph: g, Diagnosis: d}
	return metrics.ScoreResults(metrics.DefaultScoreConfig(), []*core.Result{res}, tr.GT, tr.Cl.Topo)
}

// BaselineOverhead applies the cost models to the trial.
func (tr *Trial) BaselineOverhead(kind baselines.Kind) baselines.Overhead {
	return kind.Assess(tr.View, tr.Stats)
}

// ScoreWithBinaryMeter re-runs the diagnosis over the scored session's
// reports with the causality meter collapsed to 1-bit presence (the
// ITSY-style ablation): byte counts become "some traffic existed".
func (tr *Trial) ScoreWithBinaryMeter() metrics.TrialScore {
	if tr.Score.Result == nil {
		return metrics.TrialScore{Reason: "no trigger"}
	}
	var reports []*telemetry.Report
	for _, rep := range tr.View.Traced {
		cp := *rep
		cp.Meter = make([]telemetry.MeterRecord, len(rep.Meter))
		for i, m := range rep.Meter {
			m.Bytes = 1
			cp.Meter[i] = m
		}
		reports = append(reports, &cp)
	}
	return tr.rescore(reports)
}

// runTrialWithDedup is RunTrial with an explicit polling dedup window
// (ablation support).
func runTrialWithDedup(cfg TrialConfig, dedup sim.Time) (*Trial, error) {
	d := dedup
	cfg.pollDedup = &d
	return RunTrial(cfg)
}
