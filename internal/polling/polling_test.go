package polling

import (
	"testing"

	"hawkeye/internal/cluster"
	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// fixture: a 3-switch chain with telemetry and polling handlers installed
// manually, so tests can inject polling packets and inspect decisions.

type fakeMirror struct {
	calls []struct {
		sw     topo.NodeID
		hdr    packet.PollingHeader
		inPort int
	}
}

func (m *fakeMirror) MirrorPolling(sw topo.NodeID, tel *telemetry.State, hdr packet.PollingHeader, inPort int) {
	m.calls = append(m.calls, struct {
		sw     topo.NodeID
		hdr    packet.PollingHeader
		inPort int
	}{sw, hdr, inPort})
}

type fixture struct {
	horizon sim.Time
	cl      *cluster.Cluster
	d       *topo.Dumbbell
	tels    map[topo.NodeID]*telemetry.State
	hands   map[topo.NodeID]*Handler
	mirror  *fakeMirror
	victim  packet.FiveTuple
	victimH topo.NodeID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	d, err := topo.NewChain(3, 2, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig(d.Topology))
	fx := &fixture{
		cl:     cl,
		d:      d,
		tels:   make(map[topo.NodeID]*telemetry.State),
		hands:  make(map[topo.NodeID]*Handler),
		mirror: &fakeMirror{},
	}
	cfg := telemetry.DefaultConfig()
	for id, sw := range cl.Switches {
		tel, err := telemetry.New(cfg, id, sw.Name, sw.NumPorts(), cl.Topo.LinkBandwidth, cl.Eng.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		fx.tels[id] = tel
		sw.AddInstrument(tel)
		h := NewHandler(tel, DefaultConfig(), fx.mirror, cl.Eng.Now)
		fx.hands[id] = h
		sw.SetPollHandler(h)
	}
	// The victim flow goes end to end: h0-0 -> h2-0.
	fx.victimH = d.HostsAt[0][0]
	fx.victim = packet.FiveTuple{
		SrcIP:   cl.Topo.Node(fx.victimH).IP,
		DstIP:   cl.Topo.Node(d.HostsAt[2][0]).IP,
		SrcPort: 1024, DstPort: 4791, Proto: packet.ProtoUDP,
	}
	return fx
}

func pollPacket(victim packet.FiveTuple, flag packet.PollingFlag) *packet.Packet {
	return &packet.Packet{
		Type:  packet.TypePolling,
		Flow:  victim,
		Class: packet.ClassControl,
		Size:  packet.PollingPacketSize,
		Poll:  &packet.PollingHeader{Flag: flag, Victim: victim, DiagID: 1, HopsLow: 8},
	}
}

// inject delivers a polling packet to a switch and runs the engine for a
// bounded slice of virtual time (host watchdog timers re-arm forever, so
// the queue never drains on its own).
func (fx *fixture) inject(sw *device.Switch, pkt *packet.Packet, inPort int) {
	sw.Receive(pkt, inPort)
	fx.horizon += 200 * sim.Microsecond
	fx.cl.Eng.Run(fx.horizon)
}

func TestPollingFollowsVictimPath(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	// No congestion anywhere: the polling packet should travel the victim
	// path, mirroring at each switch, and end at the victim's host.
	fx.inject(sw0, pollPacket(fx.victim, packet.FlagVictimPath), 1)
	if len(fx.mirror.calls) != 3 {
		t.Fatalf("mirrored at %d switches, want 3", len(fx.mirror.calls))
	}
	dst := fx.cl.Hosts[fx.d.HostsAt[2][0]]
	if dst.PolledReceived != 1 {
		t.Fatalf("victim destination host saw %d polling packets, want 1", dst.PolledReceived)
	}
	// Without PFC, the flag must never be upgraded.
	for _, c := range fx.mirror.calls {
		if c.hdr.Flag.TracePFC() {
			t.Fatalf("flag upgraded without PFC: %+v", c)
		}
	}
}

func TestPollingUpgradesFlagWhenVictimPaused(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	// Mark the victim flow as paused at sw0's egress toward sw1 by
	// feeding telemetry a paused enqueue.
	out, ok := sw0.RouteFor(fx.victim)
	if !ok {
		t.Fatal("no route")
	}
	fx.tels[sw0.ID].OnEnqueue(device.EnqueueEvent{
		Pkt:    &packet.Packet{Type: packet.TypeData, Flow: fx.victim, Class: packet.ClassLossless, Size: 1000},
		InPort: 1, OutPort: out, QueueBytes: 5000, Paused: true, Now: fx.cl.Eng.Now(),
	})
	fx.inject(sw0, pollPacket(fx.victim, packet.FlagVictimPath), 1)
	// sw1 must have received the polling with the PFC bit set.
	sw1 := fx.d.Switches[1]
	found := false
	for _, c := range fx.mirror.calls {
		if c.sw == sw1 && c.hdr.Flag.TracePFC() {
			found = true
		}
	}
	if !found {
		t.Fatalf("PFC bit not propagated to sw1; calls=%+v", fx.mirror.calls)
	}
}

func TestCausalityMulticastUsesMeterAndPause(t *testing.T) {
	fx := newFixture(t)
	sw1dev := fx.cl.Switches[fx.d.Switches[1]]
	tel := fx.tels[sw1dev.ID]
	// Ingress 0; egress 1 carried traffic and is paused; egress 2 carried
	// traffic but is not paused (initial congestion); egress 3 idle.
	mk := func(out int, paused bool) {
		tel.OnEnqueue(device.EnqueueEvent{
			Pkt:    &packet.Packet{Type: packet.TypeData, Flow: fx.victim, Class: packet.ClassLossless, Size: 1000},
			InPort: 0, OutPort: out, QueueBytes: 1000, Paused: paused, Now: fx.cl.Eng.Now(),
		})
	}
	mk(1, true)
	mk(2, false)
	h := fx.hands[sw1dev.ID]
	h.HandlePolling(sw1dev, pollPacket(fx.victim, packet.FlagPFCOnly), 0)
	if h.ForwardCausal != 1 {
		t.Fatalf("causal forwards = %d, want 1 (only the paused metered port)", h.ForwardCausal)
	}
	if h.TerminalLocal != 1 {
		t.Fatalf("local terminals = %d, want 1 (metered unpaused port)", h.TerminalLocal)
	}
}

func TestCausalityTerminalAtHostFacingPort(t *testing.T) {
	fx := newFixture(t)
	sw2dev := fx.cl.Switches[fx.d.Switches[2]]
	tel := fx.tels[sw2dev.ID]
	// Find a host-facing egress on sw2.
	hostPort := -1
	for pi := 0; pi < sw2dev.NumPorts(); pi++ {
		if sw2dev.IsHostFacing(pi) {
			hostPort = pi
			break
		}
	}
	tel.OnEnqueue(device.EnqueueEvent{
		Pkt:    &packet.Packet{Type: packet.TypeData, Flow: fx.victim, Class: packet.ClassLossless, Size: 1000},
		InPort: 0, OutPort: hostPort, QueueBytes: 1000, Paused: true, Now: fx.cl.Eng.Now(),
	})
	h := fx.hands[sw2dev.ID]
	h.HandlePolling(sw2dev, pollPacket(fx.victim, packet.FlagPFCOnly), 0)
	if h.TerminalHost != 1 || h.ForwardCausal != 0 {
		t.Fatalf("host terminal=%d causal=%d, want 1/0", h.TerminalHost, h.ForwardCausal)
	}
}

func TestPollingDedupWindow(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	h := fx.hands[sw0.ID]
	fx.inject(sw0, pollPacket(fx.victim, packet.FlagVictimPath), 1)
	fx.inject(sw0, pollPacket(fx.victim, packet.FlagVictimPath), 1)
	if h.Handled != 1 || h.Dropped != 1 {
		t.Fatalf("handled=%d dropped=%d, want 1/1 within dedup window", h.Handled, h.Dropped)
	}
	// A different victim is not deduped.
	other := fx.victim
	other.SrcPort++
	fx.inject(sw0, pollPacket(other, packet.FlagVictimPath), 1)
	if h.Handled != 2 {
		t.Fatalf("different victim deduped; handled=%d", h.Handled)
	}
}

func TestPollingDropsUselessAndExpired(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	h := fx.hands[sw0.ID]
	fx.inject(sw0, pollPacket(fx.victim, packet.FlagUseless), 1)
	expired := pollPacket(fx.victim, packet.FlagVictimPath)
	expired.Poll.HopsLow = 0
	fx.inject(sw0, expired, 1)
	if h.Handled != 0 || h.Dropped != 2 {
		t.Fatalf("handled=%d dropped=%d, want 0/2", h.Handled, h.Dropped)
	}
	if len(fx.mirror.calls) != 0 {
		t.Fatal("dropped packets still mirrored")
	}
}

func TestPollingTTLDecrements(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	pkt := pollPacket(fx.victim, packet.FlagVictimPath)
	pkt.Poll.HopsLow = 2
	fx.inject(sw0, pkt, 1)
	// sw0 (2) -> sw1 (1) -> sw2 (0 at arrival? decremented per emit):
	// each forward decrements; with TTL 2 the packet reaches sw1 with 1
	// and sw2 with 0, where it is dropped without forwarding.
	var ttls []uint8
	for _, c := range fx.mirror.calls {
		ttls = append(ttls, c.hdr.HopsLow)
	}
	if len(fx.mirror.calls) != 2 {
		t.Fatalf("mirrors = %d (ttls %v), want 2 with TTL 2", len(fx.mirror.calls), ttls)
	}
}

// lossInjector is a test-local FaultInjector: seeded per-packet loss,
// no duplication.
type lossInjector struct {
	prob float64
	rng  *sim.Rand
}

func (l *lossInjector) DropPolling(topo.NodeID, packet.PollingHeader) bool {
	return l.rng.Float64() < l.prob
}

func (l *lossInjector) DuplicatePolling(topo.NodeID, packet.PollingHeader) bool { return false }

func TestLossInjection(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	h := fx.hands[fx.d.Switches[0]]

	// Certain loss: every polling packet vanishes before any processing.
	loss := &lossInjector{prob: 1, rng: sim.NewRand(7)}
	h.Cfg.Faults = loss
	for i := 0; i < 5; i++ {
		v := fx.victim
		v.SrcPort += uint16(i) // distinct victims bypass dedup
		fx.inject(sw0, pollPacket(v, packet.FlagVictimPath), 0)
	}
	if h.Lost != 5 || h.Handled != 0 {
		t.Fatalf("lost=%d handled=%d, want 5/0", h.Lost, h.Handled)
	}
	if len(fx.mirror.calls) != 0 {
		t.Fatal("lost packets still triggered collection")
	}

	// Zero probability: back to normal.
	loss.prob = 0
	fx.inject(sw0, pollPacket(fx.victim, packet.FlagVictimPath), 0)
	if h.Handled != 1 {
		t.Fatalf("handled=%d after disabling loss", h.Handled)
	}
}

func TestPartialLossStillForwards(t *testing.T) {
	fx := newFixture(t)
	sw0 := fx.cl.Switches[fx.d.Switches[0]]
	h := fx.hands[fx.d.Switches[0]]
	h.Cfg.Faults = &lossInjector{prob: 0.5, rng: sim.NewRand(1)}
	n := 40
	for i := 0; i < n; i++ {
		v := fx.victim
		v.SrcPort += uint16(i)
		fx.inject(sw0, pollPacket(v, packet.FlagVictimPath), 0)
	}
	if h.Lost == 0 || h.Handled == 0 {
		t.Fatalf("lost=%d handled=%d, want both non-zero at p=0.5", h.Lost, h.Handled)
	}
	if h.Lost+h.Handled != uint64(n) {
		t.Fatalf("lost+handled=%d, want %d", h.Lost+h.Handled, n)
	}
}
