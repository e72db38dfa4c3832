package pfcwd

import (
	"testing"

	"hawkeye/internal/cluster"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func chainCluster(t *testing.T) (*cluster.Cluster, *topo.Dumbbell) {
	t.Helper()
	d, err := topo.NewChain(2, 2, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	return cluster.New(d.Topology, r, cluster.DefaultConfig()), d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DetectionTime = bad.Interval / 2
	if bad.Validate() == nil {
		t.Error("detection below interval accepted")
	}
	bad = DefaultConfig()
	bad.Interval = 0
	if bad.Validate() == nil {
		t.Error("zero interval accepted")
	}
	bad = DefaultConfig()
	bad.RestorationTime = 0
	if bad.Validate() == nil {
		t.Error("zero restoration accepted")
	}
}

func TestStormDetectionAndRestore(t *testing.T) {
	cl, d := chainCluster(t)
	sw := cl.Switches[d.Switches[0]]
	hostPort := -1
	for p := 0; p < sw.NumPorts(); p++ {
		if d.Topology.IsHostFacing(sw.ID, p) {
			hostPort = p
			break
		}
	}
	if hostPort < 0 {
		t.Fatal("no host-facing port on chain switch")
	}

	cfg := DefaultConfig()
	w, err := Attach(cl.Eng, sw, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A malfunctioning receiver keeps the egress paused: refresh the pause
	// every 200 µs for 3 ms, far past the 1 ms detection time.
	eg := sw.EgressAt(hostPort)
	for at := sim.Time(0); at < 3*sim.Millisecond; at += 200 * sim.Microsecond {
		cl.Eng.At(at, func() { eg.Pause(packet.ClassLossless, packet.MaxPauseQuanta) })
	}
	// Queue a few packets behind the pause so the flush has work to do
	// (at t=10µs, after the first pause event is active).
	cl.Eng.At(10*sim.Microsecond, func() {
		for i := 0; i < 5; i++ {
			pkt := &packet.Packet{Type: packet.TypeData, Class: packet.ClassLossless, Size: 1000,
				Flow: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}}
			sw.EnqueueAt(pkt, -1, hostPort)
		}
	})

	var stormAt, restoreAt sim.Time
	w.OnStorm = func(port int, now sim.Time) {
		if port == hostPort && stormAt == 0 {
			stormAt = now
		}
	}
	w.OnRestore = func(port int, now sim.Time) {
		if port == hostPort && restoreAt == 0 {
			restoreAt = now
		}
	}

	cl.Run(8 * sim.Millisecond)

	st := w.Stats()
	if st.Storms == 0 {
		t.Fatal("persistent pause not declared a storm")
	}
	if stormAt < cfg.DetectionTime {
		t.Fatalf("storm declared at %v, before the %v detection time", stormAt, cfg.DetectionTime)
	}
	if st.DroppedQueued != 5 {
		t.Fatalf("flushed %d packets, want the 5 queued", st.DroppedQueued)
	}
	if eg.QueuePackets(packet.ClassLossless) != 0 {
		t.Fatal("stormed queue not flushed")
	}
	// The pause stops at 3 ms (+ up to a quantum); restoration follows.
	if st.Restores == 0 {
		t.Fatal("queue never restored after the pause cleared")
	}
	if restoreAt < 3*sim.Millisecond {
		t.Fatalf("restored at %v while the pause was still active", restoreAt)
	}
	if w.Stormed(hostPort) {
		t.Fatal("port still marked stormed at the horizon")
	}
}

func TestArrivalsDroppedDuringStorm(t *testing.T) {
	cl, d := chainCluster(t)
	sw := cl.Switches[d.Switches[0]]
	w, err := Attach(cl.Eng, sw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eg := sw.EgressAt(0)
	// Hold the pause the whole run.
	for at := sim.Time(0); at < 6*sim.Millisecond; at += 200 * sim.Microsecond {
		cl.Eng.At(at, func() { eg.Pause(packet.ClassLossless, packet.MaxPauseQuanta) })
	}
	// Packets arriving after detection (1 ms) must be discarded on arrival.
	for at := 2 * sim.Millisecond; at < 4*sim.Millisecond; at += 100 * sim.Microsecond {
		cl.Eng.At(at, func() {
			pkt := &packet.Packet{Type: packet.TypeData, Class: packet.ClassLossless, Size: 1000,
				Flow: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}}
			sw.EnqueueAt(pkt, -1, 0)
		})
	}
	cl.Run(6 * sim.Millisecond)
	if w.Stats().Storms == 0 {
		t.Fatal("no storm declared")
	}
	if sw.WatchdogDrops == 0 {
		t.Fatal("arrivals during the storm were not discarded")
	}
	if got := eg.QueuePackets(packet.ClassLossless); got != 0 {
		t.Fatalf("%d packets queued behind a stormed port", got)
	}
}

// TestWatchdogBreaksRingDeadlock is the mitigation half of the paper's
// §2.2 comparison: the same forced-clockwise ring deadlock that
// cluster.TestRingDeadlockForms proves is permanent gets broken by the
// watchdog, at the price of dropped lossless packets — and because the
// mitigation cannot touch the root cause (the routing loop), the storm
// recurs after every recovery round. Identifying the root cause is
// Hawkeye's half of the comparison.
func TestWatchdogBreaksRingDeadlock(t *testing.T) {
	type probe struct {
		ackedMid, ackedEnd uint32
		stormsMid, storms  int
		restores           int
		wdDrops            uint64
		stuck              int
	}
	run := func(withWatchdog bool) probe {
		ring, err := topo.NewRing(4, 2, topo.DefaultBandwidth, topo.DefaultDelay)
		if err != nil {
			t.Fatal(err)
		}
		r := topo.ComputeRouting(ring.Topology)
		ring.ForceClockwise(r, nil)
		cl := cluster.New(ring.Topology, r, cluster.DefaultConfig())
		var dogs []*Watchdog
		if withWatchdog {
			for _, id := range ring.Switches {
				w, err := Attach(cl.Eng, cl.Switches[id], DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				dogs = append(dogs, w)
			}
		}
		for i := 0; i < 4; i++ {
			for h := 0; h < 2; h++ {
				cl.StartFlow(ring.HostsAt[i][h], ring.HostsAt[(i+2)%4][h], 2_000_000, 0)
			}
		}
		var p probe
		ackedSum := func() (sum uint32) {
			for _, hs := range ring.HostsAt {
				for _, h := range hs {
					for _, f := range cl.Hosts[h].Flows() {
						sum += f.AckedPackets()
					}
				}
			}
			return sum
		}
		// By 10 ms the deadlock has formed (and, with the watchdog, been
		// broken at least once); measure ACK progress over 10..40 ms.
		cl.Run(10 * sim.Millisecond)
		p.ackedMid = ackedSum()
		for _, w := range dogs {
			p.stormsMid += w.Stats().Storms
		}
		cl.Run(40 * sim.Millisecond)
		p.ackedEnd = ackedSum()
		for _, id := range ring.Switches {
			sw := cl.Switches[id]
			p.wdDrops += sw.WatchdogDrops
			for port := 0; port < sw.NumPorts(); port++ {
				if !ring.Topology.IsHostFacing(id, port) && sw.PauseAsserted(port, packet.ClassLossless) {
					p.stuck++
				}
			}
		}
		for _, w := range dogs {
			p.storms += w.Stats().Storms
			p.restores += w.Stats().Restores
		}
		return p
	}

	base := run(false)
	if base.stuck < 4 {
		t.Fatalf("control run: deadlock did not form (stuck=%d)", base.stuck)
	}
	if base.ackedEnd != base.ackedMid {
		t.Fatalf("control run: acked advanced %d -> %d through a permanent deadlock",
			base.ackedMid, base.ackedEnd)
	}

	wd := run(true)
	if wd.storms == 0 {
		t.Fatal("watchdog never fired on a deadlocked ring")
	}
	if wd.restores == 0 {
		t.Fatal("watchdog never restored a queue after breaking the loop")
	}
	if wd.wdDrops == 0 {
		t.Fatal("mitigation reported no dropped packets — the lossless guarantee should have been sacrificed")
	}
	// Mitigation restores delivery: ACKs keep advancing where the control
	// run froze.
	if wd.ackedEnd <= wd.ackedMid {
		t.Fatalf("no ACK progress after mitigation: %d -> %d", wd.ackedMid, wd.ackedEnd)
	}
	// ...but the root cause (the routing loop) is untouched, so the storm
	// recurs: later windows keep declaring new storms.
	if wd.storms <= wd.stormsMid {
		t.Fatalf("storms did not recur (%d by 10ms, %d by 40ms); the CBD should re-form after every recovery",
			wd.stormsMid, wd.storms)
	}
}
