package experiments

import (
	"testing"

	"hawkeye/internal/cluster"
	"hawkeye/internal/collect"
	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/host"
	"hawkeye/internal/metrics"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

// TestConcurrentAnomalies exercises §3.4's claim that Hawkeye handles
// simultaneous NPAs: per-victim dedup keeps the polling bounded, nearby
// diagnoses share register syncs, and each complaint still resolves to
// its own root cause. Two independent anomalies run at the same instant
// on one fabric — the stock incast (bursts inside pod 2, victims from
// pod 0) and a PFC storm with rogue in pod 3 and senders in pod 1, so
// their PFC spreading trees touch disjoint core ports.
func TestConcurrentAnomalies(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	routing := topo.ComputeRouting(ft.Topology)
	ccfg := cluster.DefaultConfig()
	ccfg.Seed = 1
	ccfg.Host.Agent.RTTFactor = 2
	cl := cluster.New(ft.Topology, routing, ccfg)

	score := core.DefaultConfig()
	score.Collect.BaseLatency = 200 * sim.Microsecond
	score.Collect.PerEpochLatency = 50 * sim.Microsecond
	sys, err := core.Install(cl, score)
	if err != nil {
		t.Fatal(err)
	}

	params := workload.Params{EpochSize: score.Telemetry.EpochSize()}
	incast := workload.BuildIncast(cl, ft, params)

	// Hand-rolled storm decoupled from the incast: rogue in pod 3,
	// senders in pod 1 (the stock BuildStorm sources from pod 0, which
	// the incast victims also use).
	rogue := ft.PodHosts[3][0]
	storm := &workload.GroundTruth{
		Scenario:        "concurrent-storm",
		Type:            diagnosis.TypePFCStorm,
		Injector:        rogue,
		InitialSwitches: map[topo.NodeID]bool{ft.Edge[3][0]: true},
		Victims:         make(map[packet.FiveTuple]bool),
		AnomalyAt:       incast.AnomalyAt,
	}
	cl.Hosts[rogue].InjectPFC(storm.AnomalyAt, storm.AnomalyAt+workload.InjectFor, packet.MaxPauseQuanta)
	for _, src := range []topo.NodeID{ft.PodHosts[1][0], ft.PodHosts[1][1]} {
		f := cl.StartFlowRate(src, rogue, 40_000_000, storm.AnomalyAt-300*sim.Microsecond, 25e9)
		storm.Victims[f.Tuple] = true
	}

	var triggers []host.Trigger
	sys.OnTrigger = func(tr host.Trigger) { triggers = append(triggers, tr) }

	cl.Run(incast.AnomalyAt + 15*sim.Millisecond)
	results := sys.DiagnoseAll()

	sc := metrics.DefaultScoreConfig()
	incastScore := metrics.ScoreResults(sc, results, incast, cl.Topo)
	stormScore := metrics.ScoreResults(sc, results, storm, cl.Topo)
	if !incastScore.Correct {
		t.Errorf("incast not diagnosed alongside the storm: %s", incastScore.Reason)
	}
	if !stormScore.Correct {
		t.Errorf("storm not diagnosed alongside the incast: %s", stormScore.Reason)
	}

	// Both anomalies triggered — the detection path separated them.
	var incastTrig, stormTrig bool
	for _, tr := range triggers {
		incastTrig = incastTrig || incast.Victims[tr.Victim]
		stormTrig = stormTrig || storm.Victims[tr.Victim]
	}
	if !incastTrig || !stormTrig {
		t.Fatalf("victim triggers: incast=%v storm=%v, want both", incastTrig, stormTrig)
	}

	// §3.4 collection dedup: concurrent diagnoses polling overlapping
	// switches share register syncs instead of multiplying them.
	st := sys.Collector.Stats()
	if st.DedupHits == 0 {
		t.Error("no collection dedup across concurrent anomalies; expected overlapping polls to share syncs")
	}
	// Hard bound: at most one collection per switch per dedup interval.
	horizon := incast.AnomalyAt + 15*sim.Millisecond
	perSwitch := int(horizon/collect.Interval) + 1
	if max := perSwitch * len(cl.Switches); st.Collections > max {
		t.Errorf("collections = %d, exceeds the dedup-interval bound %d", st.Collections, max)
	}
}

// TestIncidentAggregation checks the analyzer-side complaint grouping:
// a long-lived incast re-triggers complaints for its whole lifetime, yet
// they collapse to ONE incident anchored at the congested edge.
func TestIncidentAggregation(t *testing.T) {
	tr, err := RunTrial(DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	// File every complaint with a fleet store, learning each one's
	// incident from the Opened or Grew event its Add publishes.
	st := fleetstore.New(fleetstore.DefaultConfig())
	sub := st.Subscribe(fleetstore.AnyFilter(), 1)
	defer st.Hub().Unsubscribe(sub)
	incOf := make([]uint64, len(tr.Results))
	for i, r := range tr.Results {
		st.Add(fleetstore.NewRecord("trial", r))
		incOf[i] = (<-sub.Events()).Incident.ID
	}
	incs := st.Incidents(fleetstore.Query{Node: fleetstore.AnyNode})
	if len(incs) == 0 {
		t.Fatal("no incidents")
	}
	// Every complaint during the anomaly's live window — victims AND the
	// bursts complaining about their own slowdown — must land in the same
	// incident. (Complaints milliseconds later are different events:
	// background noise after the burst drained.)
	live := tr.GT.AnomalyAt + 2*sim.Millisecond
	var homeID uint64
	for i, r := range tr.Results {
		if tr.GT.Victims[r.Trigger.Victim] && r.Trigger.At >= tr.GT.AnomalyAt && r.Trigger.At < live {
			if homeID == 0 {
				homeID = incOf[i]
			} else if homeID != incOf[i] {
				t.Fatalf("live-window victim complaints split across incidents (%d total)", len(incs))
			}
		}
	}
	if homeID == 0 {
		t.Fatal("no incident contains a ground-truth victim complaint")
	}
	var home *fleetstore.Incident
	for i := range incs {
		if incs[i].ID == homeID {
			home = &incs[i]
		}
	}
	if home == nil {
		t.Fatalf("incident %d is not in the store", homeID)
	}
	if home.Complaints < 2 {
		t.Fatalf("incident has %d complaints; the incast should trigger several flows", home.Complaints)
	}
	if home.Type != tr.Score.Result.Diagnosis.Type {
		t.Fatalf("incident type %v != scored %v", home.Type, tr.Score.Result.Diagnosis.Type)
	}
}
