package host

import (
	"testing"

	"hawkeye/internal/device"
	"hawkeye/internal/fabric"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// pair wires two hosts through one switch.
type pair struct {
	eng    *sim.Engine
	net    *fabric.Network
	tp     *topo.Topology
	a, b   *Host
	sw     *device.Switch
	cfgRef Config
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	tp := topo.New(100e9, sim.Microsecond)
	ha := tp.AddHost("a")
	hb := tp.AddHost("b")
	sw := tp.AddSwitch("sw")
	tp.Connect(ha, sw)
	tp.Connect(hb, sw)
	eng := sim.NewEngine()
	net := fabric.NewNetwork(eng, tp)
	p := &pair{eng: eng, net: net, tp: tp, cfgRef: cfg}
	p.sw = device.NewSwitch(net, topo.ComputeRouting(tp), sw, device.DefaultConfig(), sim.NewRand(1))
	p.a = NewHost(net, ha, cfg)
	p.b = NewHost(net, hb, cfg)
	return p
}

func quietCfg() Config {
	cfg := DefaultConfig()
	cfg.Agent = AgentConfig{} // silent: tests drive flows, no watchdog noise
	return cfg
}

func TestFlowDeliversAndCompletes(t *testing.T) {
	p := newPair(t, quietCfg())
	f := p.a.StartFlow(1, p.b.IP, 123_456, 0)
	p.eng.Run(5 * sim.Millisecond)
	if !f.Completed() {
		t.Fatalf("flow incomplete: outstanding=%v", f.Outstanding())
	}
	if f.FCT() <= 0 || f.FCT() > 100*sim.Microsecond {
		t.Fatalf("FCT = %v", f.FCT())
	}
	if f.MinRTT() == 0 {
		t.Fatal("no RTT samples")
	}
}

func TestExactMultipleOfAckEveryCompletes(t *testing.T) {
	// Regression: a flow whose packet count is a multiple of AckEvery and
	// whose last payload is exactly MTU must still flush the final ACK.
	p := newPair(t, quietCfg())
	f := p.a.StartFlow(1, p.b.IP, 150_000, 0) // 150 pkts, 150 % 4 != 0
	g := p.a.StartFlow(2, p.b.IP, 152_000, 0) // 152 pkts, 152 % 4 == 0
	p.eng.Run(5 * sim.Millisecond)
	if !f.Completed() || !g.Completed() {
		t.Fatalf("completion: f=%v g=%v", f.Completed(), g.Completed())
	}
}

func TestFlowDoneCallback(t *testing.T) {
	p := newPair(t, quietCfg())
	done := 0
	p.a.OnFlowDone = func(*Flow) { done++ }
	p.a.StartFlow(1, p.b.IP, 10_000, 0)
	p.eng.Run(sim.Millisecond)
	if done != 1 {
		t.Fatalf("OnFlowDone fired %d times", done)
	}
}

func TestRateCapPacing(t *testing.T) {
	p := newPair(t, quietCfg())
	f := p.a.StartFlowRate(1, p.b.IP, 1_000_000, 0, 10e9)
	p.eng.Run(2 * sim.Millisecond)
	if !f.Completed() {
		t.Fatal("capped flow incomplete")
	}
	// 1 MB at 10 Gbps is ~830 µs incl. headers; line rate would be ~86 µs.
	if f.FCT() < 700*sim.Microsecond {
		t.Fatalf("FCT %v too fast for a 10G cap", f.FCT())
	}
}

func TestCNPSlowsSender(t *testing.T) {
	p := newPair(t, quietCfg())
	f := p.a.StartFlow(1, p.b.IP, 1_000_000, 0)
	p.eng.Run(20 * sim.Microsecond)
	before := f.Rate()
	// Deliver a CNP directly.
	cnp := &packet.Packet{Type: packet.TypeCNP, FlowID: 1, Class: packet.ClassControl, Size: 84}
	p.a.Receive(cnp, 0)
	if f.Rate() >= before {
		t.Fatalf("CNP did not slow the flow: %v -> %v", before, f.Rate())
	}
}

func TestNICPauseBlocksAndStallStampsRTT(t *testing.T) {
	cfg := quietCfg()
	p := newPair(t, cfg)
	f := p.a.StartFlow(1, p.b.IP, 500_000, 0)
	p.eng.Run(10 * sim.Microsecond)
	p.a.Egress().Pause(packet.ClassLossless, packet.MaxPauseQuanta) // ~335 µs
	p.eng.Run(400 * sim.Microsecond)
	p.eng.RunAll()
	if !f.Completed() {
		t.Fatal("flow incomplete after pause lapsed")
	}
	// The first packet after the stall carries the blocked time: some RTT
	// sample must be >= ~300 µs.
	if f.MinRTT() > 50*sim.Microsecond {
		t.Fatalf("baseline polluted: min %v", f.MinRTT())
	}
}

func TestAgentRTTDebounceAndDedup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Agent.RTTFactor = 1.5 // trip easily on synthetic samples
	cfg.Agent.Timeout = 0     // no watchdog
	cfg.Agent.Dedup = 100 * sim.Microsecond
	p := newPair(t, cfg)
	var trig []Trigger
	p.a.Agent().OnTrigger = func(tr Trigger) { trig = append(trig, tr) }
	f := p.a.StartFlow(1, p.b.IP, 10_000_000, 0) // long-lived
	// Feed synthetic ACKs with inflated RTT: the first over-threshold
	// sample must NOT trigger (debounce=2), the second must.
	p.eng.Run(30 * sim.Microsecond)
	base := f.MinRTT()
	trig = nil // discard anything real traffic produced during warm-up
	// Clear any debounce count accumulated from real jitter with one
	// clean (below-threshold) sample.
	p.a.Receive(&packet.Packet{Type: packet.TypeACK, FlowID: 1, Class: packet.ClassControl,
		Size: 84, AckedSeq: 1, SentAt: p.eng.Now() - base}, 0)
	mk := func() *packet.Packet {
		return &packet.Packet{Type: packet.TypeACK, FlowID: 1, Class: packet.ClassControl,
			Size: 84, AckedSeq: 1, SentAt: p.eng.Now() - 10*base}
	}
	p.a.Receive(mk(), 0)
	if len(trig) != 0 {
		t.Fatal("triggered on a single sample (debounce broken)")
	}
	p.a.Receive(mk(), 0)
	if len(trig) != 1 {
		t.Fatalf("debounced trigger missing: %d", len(trig))
	}
	// Within the dedup window further triggers are swallowed.
	p.a.Receive(mk(), 0)
	p.a.Receive(mk(), 0)
	if len(trig) != 1 {
		t.Fatalf("dedup failed: %d triggers", len(trig))
	}
	if trig[0].Reason != "rtt" || trig[0].Victim != f.Tuple {
		t.Fatalf("trigger meta: %+v", trig[0])
	}
}

func TestAgentTimeoutPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Agent.RTTFactor = 100                 // RTT path off
	cfg.Agent.ThroughputFrac = 0              // throughput path off
	cfg.Agent.Timeout = 100 * sim.Microsecond // shorter than the pause
	p := newPair(t, cfg)
	var trig []Trigger
	p.a.Agent().OnTrigger = func(tr Trigger) { trig = append(trig, tr) }
	p.a.StartFlow(1, p.b.IP, 500_000, 0)
	p.eng.At(2*sim.Microsecond, func() {
		p.a.Egress().Pause(packet.ClassLossless, packet.MaxPauseQuanta)
	})
	p.eng.Run(900 * sim.Microsecond)
	found := false
	for _, tr := range trig {
		if tr.Reason == "timeout" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no timeout trigger; got %d triggers", len(trig))
	}
}

func TestAgentEmitsPollingPacket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Agent.RTTFactor = 1.5
	p := newPair(t, cfg)
	f := p.a.StartFlow(1, p.b.IP, 10_000_000, 0)
	p.eng.Run(30 * sim.Microsecond)
	for i := 0; i < 2; i++ {
		p.a.Receive(&packet.Packet{Type: packet.TypeACK, FlowID: 1, Class: packet.ClassControl,
			Size: 84, AckedSeq: 1, SentAt: 0}, 0)
	}
	p.eng.Run(p.eng.Now() + sim.Millisecond) // watchdog rearms forever; bound the run
	// The polling packet routes like the victim and lands at host b.
	if p.b.PolledReceived < 1 {
		t.Fatalf("polling packets at victim dst: %d", p.b.PolledReceived)
	}
	_ = f
}

func TestInjectPFCPausesToR(t *testing.T) {
	p := newPair(t, quietCfg())
	p.b.InjectPFC(10*sim.Microsecond, 100*sim.Microsecond, packet.MaxPauseQuanta)
	p.eng.Run(50 * sim.Microsecond)
	if !p.sw.EgressAt(1).Paused(packet.ClassLossless) {
		t.Fatal("injection did not pause the ToR port")
	}
	p.eng.Run(600 * sim.Microsecond)
	if p.sw.EgressAt(1).Paused(packet.ClassLossless) {
		t.Fatal("pause persisted after injection stop + quanta expiry")
	}
}

func TestGoBackNOnGap(t *testing.T) {
	p := newPair(t, quietCfg())
	f := p.a.StartFlow(1, p.b.IP, 50_000, 0)
	p.eng.Run(2 * sim.Microsecond)
	// Deliver an out-of-order data packet directly to b: it must NACK.
	ooo := &packet.Packet{Type: packet.TypeData, Flow: f.Tuple, FlowID: 1,
		Class: packet.ClassLossless, Size: 1078, Seq: 999}
	p.b.Receive(ooo, 0)
	p.eng.RunAll()
	if !f.Completed() {
		t.Fatal("flow did not recover from go-back-N")
	}
}

func TestRetxTimeoutRecoversLostTail(t *testing.T) {
	p := newPair(t, quietCfg())
	f := p.a.StartFlow(1, p.b.IP, 50_000, 0)
	// Discard the flow's tail at the switch: watchdog-style drop on b's
	// port from 20 µs (mid-flow) until well past the last transmission.
	var hostPort int
	for port := 0; port < p.sw.NumPorts(); port++ {
		if peer, _ := p.tp.PeerOf(p.sw.ID, port); peer == p.b.ID {
			hostPort = port
		}
	}
	p.eng.At(2*sim.Microsecond, func() {
		p.sw.SetWatchdogDrop(hostPort, packet.ClassLossless, true)
	})
	p.eng.At(200*sim.Microsecond, func() {
		p.sw.SetWatchdogDrop(hostPort, packet.ClassLossless, false)
	})
	p.eng.Run(20 * sim.Millisecond)
	if !f.Completed() {
		t.Fatalf("flow did not recover a dropped tail: acked %d/%d, retx=%d",
			f.AckedPackets(), f.TotalPackets(), f.Retransmits)
	}
	if f.Retransmits == 0 {
		t.Fatal("recovery happened without the retransmission timer")
	}
	// The rewind resends from the cumulative ACK, so the receiver must see
	// every byte despite the hole.
	if f.AckedPackets() != f.TotalPackets() {
		t.Fatalf("acked %d of %d after recovery", f.AckedPackets(), f.TotalPackets())
	}
}

func TestRetxTimerSilentOnHealthyFlow(t *testing.T) {
	p := newPair(t, quietCfg())
	long := p.a.StartFlow(1, p.b.IP, 2_000_000, 0)
	p.eng.Run(20 * sim.Millisecond)
	if !long.Completed() {
		t.Fatal("flow incomplete")
	}
	if long.Retransmits != 0 {
		t.Fatalf("spurious retransmissions on a lossless path: %d", long.Retransmits)
	}
}

func TestRetxDisabledByZeroTimeout(t *testing.T) {
	cfg := quietCfg()
	cfg.RetxTimeout = 0
	p := newPair(t, cfg)
	f := p.a.StartFlow(1, p.b.IP, 50_000, 0)
	var hostPort int
	for port := 0; port < p.sw.NumPorts(); port++ {
		if peer, _ := p.tp.PeerOf(p.sw.ID, port); peer == p.b.ID {
			hostPort = port
		}
	}
	p.eng.At(2*sim.Microsecond, func() {
		p.sw.SetWatchdogDrop(hostPort, packet.ClassLossless, true)
	})
	p.eng.Run(20 * sim.Millisecond)
	if f.Completed() || f.Retransmits != 0 {
		t.Fatalf("disabled timer still acted: completed=%v retx=%d", f.Completed(), f.Retransmits)
	}
}
