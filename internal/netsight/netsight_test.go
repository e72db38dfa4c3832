package netsight

import (
	"testing"

	"hawkeye/internal/cluster"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func chainWithNetSight(t *testing.T) (*cluster.Cluster, *topo.Dumbbell, *Store) {
	t.Helper()
	d, err := topo.NewChain(3, 3, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig())
	store := NewStore()
	InstallAll(cl.Switches, store)
	return cl, d, store
}

func TestHistoryMatchesPath(t *testing.T) {
	cl, d, store := chainWithNetSight(t)
	f := cl.StartFlow(d.HostsAt[0][0], d.HostsAt[2][0], 10_000, 0)
	cl.Run(5 * sim.Millisecond)

	h := store.History(f.Tuple, 0)
	if len(h) != 3 {
		t.Fatalf("history has %d hops, want 3 (chain end to end)", len(h))
	}
	// Postcards, time-ordered, must walk sw0 -> sw1 -> sw2.
	for i, pc := range h {
		if pc.Switch != d.Switches[i] {
			t.Fatalf("hop %d at switch %v, want %v", i, pc.Switch, d.Switches[i])
		}
		if pc.DequeuedAt < pc.EnqueuedAt {
			t.Fatalf("hop %d dequeued before enqueued", i)
		}
	}
	// Every packet of the flow was seen.
	if seqs := store.Seqs(f.Tuple); len(seqs) != 10 {
		t.Fatalf("store saw %d packets, want 10", len(seqs))
	}
}

func TestSlowestHopLocalizesSubPFCCongestion(t *testing.T) {
	// In NetSight's home turf — congestion that stays BELOW the PFC
	// threshold — packet histories localize the delay to the congested
	// hop. Bursts sized so the shared queue peaks under Xoff (48 KB).
	cl, d, store := chainWithNetSight(t)
	dst := d.HostsAt[2][0]
	// A paced victim spans the burst window; the local bursts (30 KB
	// total) keep the shared queue under Xoff.
	victim := cl.StartFlowRate(d.HostsAt[0][0], dst, 100_000, 0, 20e9)
	cl.Eng.At(10*sim.Microsecond, func() {
		cl.StartFlow(d.HostsAt[2][1], dst, 15_000, 10*sim.Microsecond)
		cl.StartFlow(d.HostsAt[2][2], dst, 15_000, 10*sim.Microsecond)
	})
	cl.Run(10 * sim.Millisecond)
	if cl.TotalPFCFrames() != 0 {
		t.Fatalf("setup: %d PFC frames fired; the test needs sub-Xoff congestion", cl.TotalPFCFrames())
	}

	// Find the victim packet that waited longest anywhere; it must have
	// waited at the congested ToR, and for a real queuing duration.
	var worstDelay sim.Time
	var worstAt Postcard
	for _, seq := range store.Seqs(victim.Tuple) {
		pc, delay := store.SlowestHop(victim.Tuple, seq)
		if delay > worstDelay {
			worstDelay = delay
			worstAt = pc
		}
	}
	if worstAt.Switch != d.Switches[2] {
		t.Fatalf("slowest hop at %v, want the congested ToR %v", worstAt.Switch, d.Switches[2])
	}
	if worstDelay < sim.Microsecond {
		t.Fatalf("slowest hop delay %v, expected real queuing", worstDelay)
	}
}

// TestPFCMovesTheWaitUpstream is the misattribution half: once the
// congestion crosses Xoff, PFC pushes the waiting into the UPSTREAM
// switch's paused egress. NetSight's histories then blame the waiting
// room (sw1), not the congested port (sw2) — hop delays are real, but
// the causality is invisible without PFC provenance.
func TestPFCMovesTheWaitUpstream(t *testing.T) {
	cl, d, store := chainWithNetSight(t)
	dst := d.HostsAt[2][0]
	victim := cl.StartFlow(d.HostsAt[0][0], dst, 200_000, 0)
	cl.StartFlow(d.HostsAt[2][1], dst, 1_000_000, 0)
	cl.StartFlow(d.HostsAt[2][2], dst, 1_000_000, 0)
	cl.Run(10 * sim.Millisecond)
	if cl.TotalPFCFrames() == 0 {
		t.Fatal("setup: expected PFC to engage")
	}

	seqs := store.Seqs(victim.Tuple)
	late := seqs[len(seqs)/2]
	pc, _ := store.SlowestHop(victim.Tuple, late)
	if pc.Switch != d.Switches[1] {
		t.Fatalf("slowest hop at %v; with PFC active the wait accrues at the paused upstream %v",
			pc.Switch, d.Switches[1])
	}
}

func TestOverheadScalesPerPacketPerHop(t *testing.T) {
	cl, d, store := chainWithNetSight(t)
	f := cl.StartFlow(d.HostsAt[0][0], d.HostsAt[2][0], 100_000, 0)
	cl.Run(5 * sim.Millisecond)
	_ = f
	// 100 data packets x 3 hops, plus the handful of ACK-path... ACKs are
	// control packets and emit no postcards, so exactly 300.
	if store.Postcards != 300 {
		t.Fatalf("postcards = %d, want 300 (100 pkts x 3 hops)", store.Postcards)
	}
	if store.Bytes != 300*PostcardBytes {
		t.Fatalf("bytes = %d, want %d", store.Bytes, 300*PostcardBytes)
	}
}

// TestStallLeavesIncompleteHistories shows the PFC gap mechanically: a
// pause in the middle of the path freezes packets mid-history. NetSight
// sees histories that stop at the paused switch — evidence something is
// wrong, but with no pause frame, no culprit and no spreading path in the
// data.
func TestStallLeavesIncompleteHistories(t *testing.T) {
	cl, d, store := chainWithNetSight(t)
	// Pause sw1's egress toward sw2 for the whole run.
	sw := cl.Switches[d.Switches[1]]
	var upPort int
	for p := 0; p < sw.NumPorts(); p++ {
		if peer, _ := d.Topology.PeerOf(sw.ID, p); peer == d.Switches[2] {
			upPort = p
		}
	}
	for at := sim.Time(0); at < 10*sim.Millisecond; at += 200 * sim.Microsecond {
		at := at
		cl.Eng.At(at, func() {
			sw.EgressAt(upPort).Pause(packet.ClassLossless, packet.MaxPauseQuanta)
		})
	}
	f := cl.StartFlow(d.HostsAt[0][0], d.HostsAt[2][0], 20_000, 0)
	cl.Run(10 * sim.Millisecond)

	if inc := store.IncompleteHistories(f.Tuple, 3); inc == 0 {
		t.Fatal("paused path left no incomplete histories")
	}
	// And crucially: nothing in the store mentions the pause itself.
	// (Compile-time fact — Postcard has no PFC field — asserted here as
	// documentation.)
	for _, seq := range store.Seqs(f.Tuple) {
		for _, pc := range store.History(f.Tuple, seq) {
			if pc.Switch == d.Switches[2] {
				t.Fatalf("packet %d claims to have crossed the paused link", seq)
			}
		}
	}
}
