package experiments

import (
	"sort"
	"testing"

	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/packet"
	"hawkeye/internal/provenance"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

// admitAndDiagnose replays the analyzer's full path over raw report
// blobs, exactly as analyzd does for frames off the wire: strict decode,
// then admission (semantic validation, magnitude sanitization, the
// freshest report per node kept), then the one verdict assembly.
// Undecodable blobs are dropped (their switch goes silent); rejections
// and clamps count against confidence.
func admitAndDiagnose(blobs, hostBlobs [][]byte, tp *topo.Topology, epochNS int64, victim packet.FiveTuple, path []topo.NodeID) *diagnosis.Report {
	v := wire.NewValidator(tp)
	lim := telemetry.LimitsFor(tp.LinkBandwidth, epochNS)
	hostLim := telemetry.HostLimitsFor(tp.LinkBandwidth)
	ev := core.Evidence{
		Topo:   tp,
		Prov:   provenance.DefaultConfig(tp.LinkBandwidth, epochNS),
		Diag:   diagnosis.DefaultConfig(),
		Victim: victim,
		Path:   path,
	}
	reports := map[topo.NodeID]*telemetry.Report{}
	for _, b := range blobs {
		r := &telemetry.Report{}
		if r.UnmarshalBinary(b) != nil {
			continue
		}
		if _, err := ev.AdmitReport(v, r, lim); err == nil {
			reports[r.Switch] = r
		}
	}
	hosts := map[topo.NodeID]*telemetry.HostReport{}
	for _, b := range hostBlobs {
		hr := &telemetry.HostReport{}
		if hr.UnmarshalBinary(b) != nil {
			continue
		}
		if _, err := ev.AdmitHostReport(v, hr, hostLim); err == nil {
			hosts[hr.Host] = hr
		}
	}
	for _, r := range reports {
		ev.Reports = append(ev.Reports, r)
	}
	for _, hr := range hosts {
		ev.Hosts = append(ev.Hosts, hr)
	}
	_, d := core.Assess(ev)
	return d
}

// TestPoisonedTelemetryNeverConfidentlyWrong is the containment property
// behind the whole hardening layer: 200 independently seeded single-byte
// corruptions of real telemetry, each pushed through the admission path.
// None may panic, and none may yield a high-confidence verdict that
// disagrees with the uncorrupted baseline — a poisoned report may cost
// coverage or confidence, but never buy a confident lie.
func TestPoisonedTelemetryNeverConfidentlyWrong(t *testing.T) {
	tr, err := RunTrial(DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	tp := tr.Cl.Topo
	epochNS := int64(tr.Sys.Cfg.Telemetry.EpochSize())
	victim := tr.Score.Result.Trigger.Victim

	// Traced is keyed by switch; fix an order so corruption trials are
	// reproducible from the seed alone.
	sws := make([]topo.NodeID, 0, len(tr.View.Traced))
	for sw := range tr.View.Traced {
		sws = append(sws, sw)
	}
	sort.Slice(sws, func(i, j int) bool { return sws[i] < sws[j] })
	blobs := make([][]byte, 0, len(sws))
	for _, sw := range sws {
		b, err := tr.View.Traced[sw].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	// The scored session's host snapshots and declared path ride along,
	// as a fabric with host agents sends them; they are never corrupted.
	var hostBlobs [][]byte
	for _, hr := range tr.Sys.Sessions()[tr.Score.Result.Trigger.DiagID].HostReports {
		b, err := hr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		hostBlobs = append(hostBlobs, b)
	}
	path := core.VictimPath(tr.Cl.Routing, tp, victim)

	base := admitAndDiagnose(blobs, hostBlobs, tp, epochNS, victim, path)
	if base.Confidence != diagnosis.ConfHigh {
		t.Fatalf("baseline confidence %v (%.2f) — property would be vacuous", base.Confidence, base.ConfidenceScore)
	}
	if base.Type != tr.Score.Result.Diagnosis.Type {
		t.Fatalf("in-process admission path diverges from trial verdict: %v vs %v",
			base.Type, tr.Score.Result.Diagnosis.Type)
	}

	master := sim.NewRand(0xB10F11)
	for trial := 0; trial < 200; trial++ {
		rng := master.Fork()
		ri := rng.Intn(len(blobs))
		bi := rng.Intn(len(blobs[ri]))
		delta := byte(rng.Intn(255) + 1) // never the identity

		poisoned := make([][]byte, len(blobs))
		copy(poisoned, blobs)
		mut := append([]byte(nil), blobs[ri]...)
		mut[bi] ^= delta
		poisoned[ri] = mut

		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d (report %d byte %d ^= %#x): admission path panicked: %v",
						trial, ri, bi, delta, r)
				}
			}()
			d := admitAndDiagnose(poisoned, hostBlobs, tp, epochNS, victim, path)
			if d.Confidence == diagnosis.ConfHigh && d.Type != base.Type {
				t.Fatalf("trial %d (report %d byte %d ^= %#x): confidently wrong — %v at %.2f, baseline %v",
					trial, ri, bi, delta, d.Type, d.ConfidenceScore, base.Type)
			}
		}()
	}
}
