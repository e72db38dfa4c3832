package spidermon

import (
	"testing"

	"hawkeye/internal/cluster"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/workload"
)

func chainWithSpiderMon(t *testing.T, cfg Config) (*cluster.Cluster, *topo.Dumbbell, map[topo.NodeID]*Instrument, *[]Trigger) {
	t.Helper()
	d, err := topo.NewChain(3, 3, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig())
	var triggers []Trigger
	ins := InstallAll(cl.Switches, cfg, cl.Eng.Now, func(tr Trigger) { triggers = append(triggers, tr) })
	return cl, d, ins, &triggers
}

func TestCumulativeDelayAccumulates(t *testing.T) {
	cl, d, ins, _ := chainWithSpiderMon(t, DefaultConfig())
	// Two line-rate senders into one receiver build a real queue; the
	// receiver-side packets must carry non-zero cumulative delay.
	dst := d.HostsAt[2][0]
	cl.StartFlow(d.HostsAt[0][0], dst, 500_000, 0)
	cl.StartFlow(d.HostsAt[0][1], dst, 500_000, 0)
	cl.Run(5 * sim.Millisecond)
	var total uint64
	for _, in := range ins {
		total += in.InBandBytes
	}
	if total == 0 {
		t.Fatal("no in-band bytes recorded")
	}
	// 2 B per data packet per hop: 1000 packets x 3 switch hops x 2 flows.
	if total < 2*2*1000 {
		t.Fatalf("in-band bytes = %d, implausibly low", total)
	}
}

func TestTriggerOnCongestedFlow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 10 * sim.Microsecond
	cl, d, _, triggers := chainWithSpiderMon(t, cfg)
	dst := d.HostsAt[2][0]
	victim := cl.StartFlow(d.HostsAt[0][0], dst, 300_000, 0)
	cl.StartFlow(d.HostsAt[0][1], dst, 1_000_000, 0)
	cl.StartFlow(d.HostsAt[1][0], dst, 1_000_000, 0)
	cl.Run(10 * sim.Millisecond)
	found := false
	for _, tr := range *triggers {
		if tr.Victim == victim.Tuple {
			found = true
			if tr.DelayNS < cfg.Threshold {
				t.Fatalf("trigger below threshold: %v", tr.DelayNS)
			}
			// The delivery point is the receiver's ToR.
			if tr.Switch != d.Switches[2] {
				t.Fatalf("trigger at switch %v, want the last hop %v", tr.Switch, d.Switches[2])
			}
		}
	}
	if !found {
		t.Fatal("congested flow never triggered")
	}
}

func TestDedupSuppressesRepeats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 5 * sim.Microsecond
	cfg.Dedup = 100 * sim.Millisecond // effectively once per flow
	cl, d, _, triggers := chainWithSpiderMon(t, cfg)
	dst := d.HostsAt[2][0]
	cl.StartFlow(d.HostsAt[0][0], dst, 2_000_000, 0)
	cl.StartFlow(d.HostsAt[0][1], dst, 2_000_000, 0)
	cl.Run(20 * sim.Millisecond)
	perFlow := map[packet.FiveTuple]int{}
	for _, tr := range *triggers {
		perFlow[tr.Victim]++
	}
	for f, n := range perFlow {
		if n > 1 {
			t.Fatalf("flow %v triggered %d times within one dedup window", f, n)
		}
	}
}

func TestCounterSaturates(t *testing.T) {
	// A packet delayed > 4.2 ms clips at the 16-bit max instead of
	// wrapping to a small (healthy-looking) value.
	cl, d, ins, _ := chainWithSpiderMon(t, DefaultConfig())
	sw := cl.Switches[d.Switches[0]]
	// Find the port toward switch 1 and pause it for a long time.
	var upPort int
	for p := 0; p < sw.NumPorts(); p++ {
		if peer, _ := d.Topology.PeerOf(sw.ID, p); peer == d.Switches[1] {
			upPort = p
		}
	}
	for at := sim.Time(0); at < 6*sim.Millisecond; at += 200 * sim.Microsecond {
		at := at
		cl.Eng.At(at, func() {
			sw.EgressAt(upPort).Pause(packet.ClassLossless, packet.MaxPauseQuanta)
		})
	}
	cl.Eng.At(6100*sim.Microsecond, func() { sw.EgressAt(upPort).Resume(packet.ClassLossless) })
	cl.StartFlow(d.HostsAt[0][0], d.HostsAt[1][0], 2_000, 0)
	cl.Run(20 * sim.Millisecond)
	var saturated uint64
	for _, in := range ins {
		saturated += in.Saturated
	}
	if saturated == 0 {
		t.Fatal("6 ms stall did not saturate the 16-bit counter")
	}
}

// TestStormBlindness demonstrates §2's criticism mechanically: during a
// PFC storm the victim's packets stop being DELIVERED, so the in-band
// counters go quiet exactly while the anomaly is live — and nothing
// SpiderMon collected says "pause" or points at the injector.
func TestStormBlindness(t *testing.T) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(ft.Topology)
	cl := cluster.New(ft.Topology, r, cluster.DefaultConfig())
	var triggers []Trigger
	InstallAll(cl.Switches, DefaultConfig(), cl.Eng.Now, func(tr Trigger) { triggers = append(triggers, tr) })

	params := workload.Params{EpochSize: 131072}
	gt := workload.BuildStorm(cl, ft, params)
	cl.Run(gt.AnomalyAt + 10*sim.Millisecond)

	// The stall is pure host PFC with NO queue buildup beforehand: the
	// senders are rate-capped below the rogue's link. SpiderMon's only
	// signal would be a delivered packet with a huge accumulated delay,
	// which exists only if a stalled packet eventually gets through; the
	// injection outlives the horizon, so the victims produce no usable
	// trigger while Hawkeye's agent (RTT/timeout on the SENDER side)
	// catches it — see core's end-to-end storm test.
	for _, tr := range triggers {
		if gt.Victims[tr.Victim] && tr.At >= gt.AnomalyAt {
			t.Fatalf("in-band counters triggered on a victim during the storm at %v — "+
				"the storm should be invisible to delivered-packet telemetry", tr.At)
		}
	}
}
