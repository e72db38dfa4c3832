package cluster

import (
	"testing"
	"testing/quick"

	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// chainCluster builds N switches in a line with hostsPer hosts each.
func chainCluster(t *testing.T, n, hostsPer int) (*Cluster, *topo.Dumbbell) {
	t.Helper()
	d, err := topo.NewChain(n, hostsPer, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	return New(d.Topology, r, DefaultConfig()), d
}

func TestSingleFlowCompletes(t *testing.T) {
	c, d := chainCluster(t, 2, 1)
	src, dst := d.HostsAt[0][0], d.HostsAt[1][0]
	f := c.StartFlow(src, dst, 100_000, 0)
	c.Run(10 * sim.Millisecond)
	if !f.Completed() {
		t.Fatalf("flow did not complete; remaining=%d acked=%d", f.TotalBytes(), f.MinRTT())
	}
	// 100 KB at 100 Gbps is ~8.6 µs of serialization (incl. headers);
	// with 3 links of 2 µs propagation the FCT must be well under 100 µs.
	if f.FCT() > 100*sim.Microsecond {
		t.Fatalf("FCT %v unreasonably slow for uncongested path", f.FCT())
	}
	if c.TotalDrops() != 0 {
		t.Fatalf("%d drops on an idle fabric", c.TotalDrops())
	}
}

func TestRTTNearBaseline(t *testing.T) {
	c, d := chainCluster(t, 2, 1)
	src, dst := d.HostsAt[0][0], d.HostsAt[1][0]
	f := c.StartFlow(src, dst, 50_000, 0)
	c.Run(5 * sim.Millisecond)
	base := c.BaseRTT(src, dst)
	if f.MinRTT() == 0 {
		t.Fatal("no RTT samples")
	}
	if f.MinRTT() > 3*base {
		t.Fatalf("min RTT %v far above baseline estimate %v", f.MinRTT(), base)
	}
}

func TestIncastTriggersPFCWithoutLoss(t *testing.T) {
	// 4 senders on sw0 blast one receiver on sw1: the shared egress
	// congests, ingress accounting crosses Xoff, and PAUSE frames flow.
	c, d := chainCluster(t, 2, 5)
	dst := d.HostsAt[1][0]
	for i := 0; i < 4; i++ {
		c.StartFlow(d.HostsAt[0][i], dst, 400_000, 0)
	}
	c.Run(10 * sim.Millisecond)
	if c.TotalPFCFrames() == 0 {
		t.Fatal("incast produced no PFC frames")
	}
	if c.TotalDrops() != 0 {
		t.Fatalf("lossless fabric dropped %d packets", c.TotalDrops())
	}
	for _, h := range []topo.NodeID{d.HostsAt[0][0], d.HostsAt[0][1]} {
		for _, f := range c.Hosts[h].Flows() {
			if !f.Completed() {
				t.Fatalf("incast flow from %v never completed", h)
			}
		}
	}
}

func TestPFCBackpressureSpreadsUpstream(t *testing.T) {
	// Chain of 3 switches. Receiver-side congestion at sw2's host port
	// must propagate pause frames back to sw1 and eventually sw0
	// (cascading backpressure, paper §2).
	c, d := chainCluster(t, 3, 4)
	dst := d.HostsAt[2][0]
	// Overload the 100G host link with 6 senders spread over sw0/sw1.
	for i := 0; i < 3; i++ {
		c.StartFlow(d.HostsAt[0][i], dst, 600_000, 0)
		c.StartFlow(d.HostsAt[1][i+1], dst, 600_000, 0)
	}
	c.Run(4 * sim.Millisecond)
	// The bottleneck is sw1's egress toward sw2 (up to 4 sources compete
	// for one 100G link): sw1 must pause its ingresses, and the paused
	// sw0->sw1 link must in turn make sw0 pause its own hosts.
	sw1 := c.Switches[d.Switches[1]]
	sw0 := c.Switches[d.Switches[0]]
	if sw1.TxPFCFrames == 0 {
		t.Fatal("congested switch sent no PFC")
	}
	if sw0.TxPFCFrames == 0 {
		t.Fatal("backpressure did not spread one hop upstream")
	}
	if c.TotalDrops() != 0 {
		t.Fatalf("drops in lossless fabric: %d", c.TotalDrops())
	}
}

func TestHostRespectsPause(t *testing.T) {
	c, d := chainCluster(t, 2, 2)
	src := d.HostsAt[0][0]
	dst := d.HostsAt[1][0]
	f := c.StartFlow(src, dst, 1_000_000, 0)
	// Pause the host NIC directly partway through.
	h := c.Hosts[src]
	c.Eng.At(20*sim.Microsecond, func() {
		h.Egress().Pause(packet.ClassLossless, packet.MaxPauseQuanta)
	})
	c.Run(200 * sim.Microsecond)
	// ~335 µs max pause at 100G: flow must still be unfinished at 200 µs,
	// far past its ~90 µs uncongested FCT.
	if f.Completed() {
		t.Fatal("flow completed although its NIC was paused")
	}
	c.Run(2 * sim.Millisecond)
	if !f.Completed() {
		t.Fatal("flow never resumed after pause lapsed")
	}
}

func TestHostPFCInjectionBlocksDownlink(t *testing.T) {
	// Fig 1(b): a host injecting PFC pauses its ToR downlink; traffic to
	// that host stalls even with zero contention.
	c, d := chainCluster(t, 2, 2)
	rogue := d.HostsAt[1][0]
	src := d.HostsAt[0][0]
	c.Hosts[rogue].InjectPFC(0, 3*sim.Millisecond, packet.MaxPauseQuanta)
	f := c.StartFlow(src, rogue, 200_000, 10*sim.Microsecond)
	c.Run(2 * sim.Millisecond)
	if f.Completed() {
		t.Fatal("flow completed despite receiver PFC injection")
	}
	sw1 := c.Switches[d.Switches[1]]
	if sw1.RxPFCFrames == 0 {
		t.Fatal("ToR saw no injected PFC frames")
	}
	// The stall must also have spread upstream: sw1 pauses sw0.
	if sw1.TxPFCFrames == 0 {
		t.Fatal("injected PFC did not cascade upstream")
	}
	c.Run(6 * sim.Millisecond)
	if !f.Completed() {
		t.Fatal("flow never completed after the storm ended")
	}
}

func TestRingDeadlockForms(t *testing.T) {
	// Forced clockwise routing on a 4-ring plus cross traffic creates a
	// cyclic buffer dependency; saturating it deadlocks the loop:
	// pause assertions on every ring link that never clear.
	ring, err := topo.NewRing(4, 2, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(ring.Topology)
	ring.ForceClockwise(r, nil)
	cfg := DefaultConfig()
	c := New(ring.Topology, r, cfg)
	// Each switch's hosts send two hops clockwise; every ring link is a
	// transit link for two source switches, so queues build everywhere.
	for i := 0; i < 4; i++ {
		for h := 0; h < 2; h++ {
			dst := ring.HostsAt[(i+2)%4][h]
			c.StartFlow(ring.HostsAt[i][h], dst, 2_000_000, 0)
		}
	}
	c.Run(20 * sim.Millisecond)
	// Count ring links whose downstream switch is still asserting pause
	// against ring ingress at the horizon.
	stuck := 0
	for i := 0; i < 4; i++ {
		sw := c.Switches[ring.Switches[i]]
		for p := 0; p < sw.NumPorts(); p++ {
			if !ring.Topology.IsHostFacing(sw.ID, p) && sw.PauseAsserted(p, packet.ClassLossless) {
				stuck++
			}
		}
	}
	if stuck < 4 {
		t.Fatalf("expected a full deadlock cycle, found %d paused ring ingresses", stuck)
	}
	// And flows through the loop must be stalled.
	done := 0
	for _, hs := range ring.HostsAt {
		for _, h := range hs {
			for _, f := range c.Hosts[h].Flows() {
				if f.Completed() {
					done++
				}
			}
		}
	}
	if done != 0 {
		t.Fatalf("%d flows completed through a deadlocked loop", done)
	}
}

func TestECNKeepsQueuesBounded(t *testing.T) {
	// Two long flows into one receiver: DCQCN should keep steady-state
	// queues near the ECN ramp rather than slamming into Xoff forever.
	c, d := chainCluster(t, 2, 3)
	dst := d.HostsAt[1][0]
	c.StartFlow(d.HostsAt[0][0], dst, 3_000_000, 0)
	c.StartFlow(d.HostsAt[0][1], dst, 3_000_000, 0)
	c.Run(10 * sim.Millisecond)
	// After warm-up, PFC may fire during the initial line-rate burst but
	// must stop once DCQCN settles; compare early vs late frame counts.
	early := c.TotalPFCFrames()
	c.Run(30 * sim.Millisecond)
	late := c.TotalPFCFrames() - early
	if late > early {
		t.Fatalf("PFC still accelerating after DCQCN settled: early=%d late=%d", early, late)
	}
	if c.TotalDrops() != 0 {
		t.Fatalf("drops: %d", c.TotalDrops())
	}
}

func TestDetectionAgentFiresOnCongestion(t *testing.T) {
	c, d := chainCluster(t, 2, 5)
	dst := d.HostsAt[1][0]
	victimSrc := d.HostsAt[0][0]
	var triggers []host.Trigger
	c.Hosts[victimSrc].Agent().OnTrigger = func(tr host.Trigger) { triggers = append(triggers, tr) }
	// Victim starts alone, then an incast slams the shared egress.
	vf := c.StartFlow(victimSrc, dst, 1_500_000, 0)
	for i := 1; i < 5; i++ {
		c.StartFlow(d.HostsAt[0][i], dst, 400_000, 100*sim.Microsecond)
	}
	c.Run(10 * sim.Millisecond)
	if len(triggers) == 0 {
		t.Fatal("agent never triggered under heavy congestion")
	}
	if triggers[0].Victim != vf.Tuple {
		t.Fatalf("trigger victim %v, want %v", triggers[0].Victim, vf.Tuple)
	}
	// Dedup: triggers for one flow must be spaced by at least the dedup
	// interval.
	dedup := c.Cfg.Host.Agent.Dedup
	for i := 1; i < len(triggers); i++ {
		if triggers[i].Victim == triggers[0].Victim && triggers[i].At-triggers[i-1].At < dedup {
			t.Fatalf("dedup violated: triggers %v and %v", triggers[i-1].At, triggers[i].At)
		}
	}
}

func TestAgentTimeoutDetectsFullStall(t *testing.T) {
	// Receiver injects PFC forever: the victim gets no ACKs at all, so
	// only the timeout path can detect it (the deadlock-relevant case).
	c, d := chainCluster(t, 2, 2)
	rogue := d.HostsAt[1][0]
	src := d.HostsAt[0][0]
	c.Hosts[rogue].InjectPFC(0, 50*sim.Millisecond, packet.MaxPauseQuanta)
	var reasons []string
	c.Hosts[src].Agent().OnTrigger = func(tr host.Trigger) { reasons = append(reasons, tr.Reason) }
	c.StartFlow(src, rogue, 500_000, 10*sim.Microsecond)
	c.Run(5 * sim.Millisecond)
	found := false
	for _, r := range reasons {
		if r == "timeout" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no timeout trigger for fully stalled flow; reasons=%v", reasons)
	}
}

// TestLosslessDeliveryProperty is the PFC safety property: on an
// uncapped-buffer fabric with no routing loops, every data byte handed
// to the NIC is eventually delivered and acknowledged — PFC converts
// overload into waiting, never into loss — across randomized flow
// layouts.
func TestLosslessDeliveryProperty(t *testing.T) {
	prop := func(seed uint64, n uint8, sizeSel uint16) bool {
		d, err := topo.NewChain(3, 3, topo.DefaultBandwidth, topo.DefaultDelay)
		if err != nil {
			return false
		}
		r := topo.ComputeRouting(d.Topology)
		cfg := DefaultConfig()
		cfg.Seed = seed | 1
		c := New(d.Topology, r, cfg)
		rng := sim.NewRand(seed | 1)
		flows := 2 + int(n%6)
		var started []*host.Flow
		hosts := d.Topology.Hosts()
		for i := 0; i < flows; i++ {
			src := hosts[rng.Uint64()%uint64(len(hosts))]
			dst := hosts[rng.Uint64()%uint64(len(hosts))]
			if src == dst {
				continue
			}
			size := int64(10_000 + int(sizeSel)%90_000)
			started = append(started, c.StartFlow(src, dst, size, sim.Time(rng.Uint64()%uint64(100*sim.Microsecond))))
		}
		c.Run(80 * sim.Millisecond)
		if c.TotalDrops() != 0 {
			return false
		}
		for _, f := range started {
			if !f.Completed() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
