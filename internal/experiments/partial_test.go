package experiments

import (
	"fmt"
	"testing"

	"hawkeye/internal/baselines"
	"hawkeye/internal/chaos"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/packet"
	"hawkeye/internal/workload"
)

// TestPartialDeploymentTradeoff checks §5's deployment discussion: with
// flow telemetry restricted to edge (ToR) switches, root causes at edge
// ports stay fully diagnosable, while the in-loop deadlock — whose
// initiating burst is only visible in aggregation/core flow tables —
// loses its root-cause evidence.
func TestPartialDeploymentTradeoff(t *testing.T) {
	run := func(scen string, partial bool) float64 {
		tc := DefaultTrialConfig(scen, 1)
		tc.EdgeFlowTelemetryOnly = partial
		tr, err := RunTrial(tc)
		if err != nil {
			t.Fatalf("%s partial=%v: %v", scen, partial, err)
		}
		if !tr.Score.Detected {
			t.Fatalf("%s partial=%v: not detected", scen, partial)
		}
		if tr.Score.Correct {
			return 1
		}
		return 0
	}

	// Edge-rooted case: unaffected by the partial deployment.
	if got := run(workload.NameIncast, true); got != 1 {
		t.Errorf("incast with edges-only flow telemetry: precision %.0f, want 1", got)
	}
	// Fabric-rooted case: correct with full deployment, degraded without
	// aggregation/core flow tables.
	if got := run(workload.NameInLoop, false); got != 1 {
		t.Errorf("in-loop deadlock with full deployment: precision %.0f, want 1", got)
	}
	if got := run(workload.NameInLoop, true); got != 0 {
		t.Errorf("in-loop deadlock with edges-only flow telemetry: precision %.0f, want 0 (root-cause evidence lives in the fabric)", got)
	}
}

// TestTestbedLeafSpine validates Hawkeye end-to-end on the leaf-spine
// testbed topology (§4.1): the system must not be specialized to the
// fat-tree's structure.
func TestTestbedLeafSpine(t *testing.T) {
	for _, scen := range []string{"incast", "storm"} {
		score, err := RunTestbed(scen, 1)
		if err != nil {
			t.Fatalf("%s: %v", scen, err)
		}
		if !score.Correct {
			t.Errorf("testbed %s on leaf-spine: %s", scen, score.Reason)
		}
	}
}

// TestOverheadModelMatchesMechanism cross-checks Fig 9's cost models
// against the mechanistic baseline implementations: the in-band bytes
// SpiderMon's instruments actually added, and the postcard bytes
// NetSight's store actually ingested, must agree with the
// packets-x-hops models within the slack of the AvgHops estimate.
func TestOverheadModelMatchesMechanism(t *testing.T) {
	tc := DefaultTrialConfig(workload.NameIncast, 1)
	tc.MeasureBaselines = true
	tr, err := RunTrial(tc)
	if err != nil {
		t.Fatal(err)
	}
	within := func(measured, modelled uint64) bool {
		if measured == 0 || modelled == 0 {
			return false
		}
		r := float64(measured) / float64(modelled)
		return r > 0.3 && r < 3
	}
	sm := tr.BaselineOverhead(baselines.KindSpiderMon).MonitorWireBytes
	if !within(tr.MeasuredSpiderMonBytes, sm) {
		t.Errorf("SpiderMon wire bytes: measured %d vs model %d", tr.MeasuredSpiderMonBytes, sm)
	}
	ns := tr.BaselineOverhead(baselines.KindNetSight).MonitorWireBytes
	if !within(tr.MeasuredNetSightBytes, ns) {
		t.Errorf("NetSight wire bytes: measured %d vs model %d", tr.MeasuredNetSightBytes, ns)
	}
}

// TestPollingLossDegradation is the failure-injection sweep: with a lossy
// control plane the diagnosis must degrade gracefully — never crash, and
// detection itself (which rides the host agent, not polling) must keep
// firing even when every polling packet is lost.
func TestPollingLossDegradation(t *testing.T) {
	for _, loss := range []float64{0.3, 1.0} {
		tc := DefaultTrialConfig(workload.NameIncast, 1)
		tc.Chaos = &chaos.Schedule{PollLoss: loss}
		tr, err := RunTrial(tc)
		if err != nil {
			t.Fatalf("loss=%.1f: %v", loss, err)
		}
		if !tr.Score.Detected && loss < 1 {
			t.Errorf("loss=%.1f: no diagnosis at partial loss", loss)
		}
		if len(tr.Sys.Triggers()) == 0 {
			t.Errorf("loss=%.1f: host agents stopped detecting", loss)
		}
		var lost uint64
		for _, h := range tr.Sys.Handlers {
			lost += h.Lost
		}
		if lost == 0 {
			t.Errorf("loss=%.1f: no injected losses recorded", loss)
		}
		if loss == 1.0 {
			// Total polling loss: no causality tracing, no collections via
			// polling; the scored session must simply be empty/incorrect,
			// not a panic.
			if tr.Score.Correct {
				t.Error("loss=1.0: diagnosis claimed success with zero telemetry")
			}
		}
	}
}

// TestECMPImbalanceDiagnosed covers §2's load-imbalance NPA: hash
// polarization overloads one uplink with healthy routing; Hawkeye must
// classify the spreading stall as PFC contention rooted at the
// imbalanced uplink's switch with the polarized elephants as culprits.
func TestECMPImbalanceDiagnosed(t *testing.T) {
	score, err := RunECMPImbalance(1)
	if err != nil {
		t.Fatal(err)
	}
	if !score.Detected {
		t.Fatal("imbalance never detected")
	}
	if !score.Correct {
		t.Fatalf("imbalance misdiagnosed: %s", score.Reason)
	}
	// §3.5.2 cause refinement: the elephants had an equal-cost sibling
	// uplink and polarized anyway.
	if score.Result.Detail != diagnosis.DetailECMPImbalance {
		t.Fatalf("cause detail = %v, want ecmp-imbalance", score.Result.Detail)
	}
}

// TestCauseDetailRefinement pins §3.5.2's refinement on the stock
// scenarios. Physics note: the PFC incast's bursts get throttled by the
// very backpressure they cause, smearing them across the whole telemetry
// window — by diagnosis time the congested host port sees sustained
// overload, which is what the refinement reports. The short-lived burst
// shape survives only where PFC never engages: the normal-contention
// case refines to micro-burst.
func TestCauseDetailRefinement(t *testing.T) {
	incast, err := RunTrial(DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !incast.Score.Correct {
		t.Fatalf("incast misdiagnosed: %s", incast.Score.Reason)
	}
	if incast.Score.Result.Detail != diagnosis.DetailOverload {
		t.Fatalf("incast cause detail = %v, want overload (PFC-stretched bursts)", incast.Score.Result.Detail)
	}

	normal, err := RunTrial(DefaultTrialConfig(workload.NameNormal, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !normal.Score.Correct {
		t.Fatalf("normal contention misdiagnosed: %s", normal.Score.Reason)
	}
	if normal.Score.Result.Detail != diagnosis.DetailMicroBurst {
		t.Fatalf("normal-contention cause detail = %v, want micro-burst", normal.Score.Result.Detail)
	}
}

// TestTrialDeterminism pins the simulator's core reproducibility claim:
// identical configs produce byte-identical outcomes — trigger sequences,
// diagnosis types and collected-report sets. (Map-iteration leaks into
// packet interleaving were real bugs during development; this guards
// against their return.)
func TestTrialDeterminism(t *testing.T) {
	run := func() ([]string, error) {
		tr, err := RunTrial(DefaultTrialConfig(workload.NameStorm, 2))
		if err != nil {
			return nil, err
		}
		var sig []string
		for _, r := range tr.Results {
			sig = append(sig, fmt.Sprintf("%v|%v|%s|%v|%d",
				r.Trigger.At, r.Trigger.Victim, r.Trigger.Reason, r.Diagnosis.Type, len(r.Switches)))
		}
		return sig, nil
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no results to compare")
	}
}

// TestDiagnosisSurvivesWatchdogMitigation runs mitigation and diagnosis
// together (§2.2: operators deploy both). The watchdog's 1 ms detection
// window is slower than the complaint path, so the in-loop deadlock is
// diagnosed from pre-mitigation telemetry even though the watchdog later
// flushes the loop — and the watchdog does fire, proving both systems
// acted on the same event.
func TestDiagnosisSurvivesWatchdogMitigation(t *testing.T) {
	tc := DefaultTrialConfig(workload.NameInLoop, 1)
	tc.EnableWatchdog = true
	tr, err := RunTrial(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Score.Correct {
		t.Fatalf("deadlock misdiagnosed with mitigation active: %s", tr.Score.Reason)
	}
	storms := 0
	for _, w := range tr.Watchdogs {
		storms += w.Stats().Storms
	}
	if storms == 0 {
		t.Fatal("watchdog never fired on the deadlock")
	}
	// Mitigation actually restored the fabric: the cycle's pauses cleared
	// by the horizon.
	stuck := 0
	for _, sw := range tr.Cl.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			if !tr.Cl.Topo.IsHostFacing(sw.ID, p) && sw.PauseAsserted(p, packet.ClassLossless) {
				stuck++
			}
		}
	}
	if stuck > 0 {
		t.Fatalf("%d fabric pauses still asserted at the horizon despite mitigation", stuck)
	}
}
