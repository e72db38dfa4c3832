package chaos

import (
	"bufio"
	"bytes"
	"io"
	"math/bits"
	"net"
	"reflect"
	"testing"
	"time"

	"hawkeye/internal/cluster"
	"hawkeye/internal/core"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

func pollingHdr() packet.PollingHeader {
	return packet.PollingHeader{Flag: packet.FlagBoth, DiagID: 7, HopsLow: 4}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "poll-loss=0.2,poll-dup=0.05,tel-loss=0.3,meter-corrupt=0.02," +
		"status-corrupt=0.04,collect-drop=0.1,collect-lag=2ms," +
		"flap=1/2@500us+300us,bw=0/1@100us+1ms*0.25"
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.PollLoss != 0.2 || s.PollDup != 0.05 || s.TelemetryEpochLoss != 0.3 {
		t.Fatalf("probabilities mis-parsed: %+v", s)
	}
	if s.CollectLagMax != 2*sim.Millisecond {
		t.Fatalf("collect-lag = %v", s.CollectLagMax)
	}
	if len(s.LinkFlaps) != 1 || s.LinkFlaps[0] != (LinkFlap{Node: 1, Port: 2, At: 500 * sim.Microsecond, Duration: 300 * sim.Microsecond}) {
		t.Fatalf("flap mis-parsed: %+v", s.LinkFlaps)
	}
	if len(s.BWDegrades) != 1 || s.BWDegrades[0].Factor != 0.25 {
		t.Fatalf("bw mis-parsed: %+v", s.BWDegrades)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// String() must render back into the grammar and re-parse to the same
	// schedule (the determinism contract for logged run configs).
	s2, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", s.String(), err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip changed schedule:\n  %+v\n  %+v", s, s2)
	}
}

func TestParseScheduleEmpty(t *testing.T) {
	for _, spec := range []string{"", "none", "  "} {
		s, err := ParseSchedule(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if !s.IsZero() {
			t.Fatalf("%q parsed non-empty: %+v", spec, s)
		}
		if got := s.String(); got != "none" {
			t.Fatalf("empty schedule renders %q", got)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"poll-loss=1.5",        // probability out of range
		"poll-loss",            // not key=value
		"frobnicate=1",         // unknown fault
		"collect-lag=fast",     // bad duration
		"flap=1@500us+300us",   // missing port
		"flap=1/2@500us",       // missing duration
		"bw=0/1@100us+1ms",     // missing factor
		"bw=0/1@100us+1ms*1.5", // factor out of range
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("%q parsed without error", spec)
		}
	}
}

func TestValidateRejectsBadWindows(t *testing.T) {
	s := &Schedule{LinkFlaps: []LinkFlap{{Node: 1, Port: 0, At: 0, Duration: 0}}}
	if err := s.Validate(); err == nil {
		t.Error("zero-duration flap validated")
	}
	s = &Schedule{BWDegrades: []BWDegrade{{Node: 1, Port: 0, Duration: sim.Millisecond, Factor: 1.2}}}
	if err := s.Validate(); err == nil {
		t.Error("factor>1 degrade validated")
	}
}

// TestEngineDeterminism: the same seed and schedule must reproduce the
// same decision sequence, and each fault channel must be independent —
// drawing heavily from one channel's stream must not shift another's.
func TestEngineDeterminism(t *testing.T) {
	sched := Schedule{PollLoss: 0.3, PollDup: 0.1, TelemetryEpochLoss: 0.4, CollectDrop: 0.2}
	a := NewEngine(sched, 42)
	b := NewEngine(sched, 42)
	for i := 0; i < 500; i++ {
		if a.DropPolling(1, pollingHdr()) != b.DropPolling(1, pollingHdr()) {
			t.Fatalf("poll decision diverged at %d", i)
		}
		if a.DropEpoch(1, i%4) != b.DropEpoch(1, i%4) {
			t.Fatalf("epoch decision diverged at %d", i)
		}
		if a.DropDelivery(1) != b.DropDelivery(1) {
			t.Fatalf("delivery decision diverged at %d", i)
		}
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters diverged:\n  %v\n  %v", a.Counters, b.Counters)
	}
	if a.Counters.PollingDropped == 0 || a.Counters.EpochsDropped == 0 || a.Counters.DeliveriesDropped == 0 {
		t.Fatalf("expected all channels to fire: %v", a.Counters)
	}

	// Channel independence: c consumes the polling stream 1000 extra
	// times; its telemetry decisions must still match d's exactly.
	c := NewEngine(sched, 7)
	d := NewEngine(sched, 7)
	for i := 0; i < 1000; i++ {
		c.DropPolling(2, pollingHdr())
	}
	for i := 0; i < 200; i++ {
		if c.DropEpoch(2, i%4) != d.DropEpoch(2, i%4) {
			t.Fatalf("tel stream perturbed by poll stream at %d", i)
		}
	}
}

func TestCorruptMeterBoundsAndZeroFilter(t *testing.T) {
	e := NewEngine(Schedule{MeterCorrupt: 1}, 3)
	zeroed := 0
	for i := 0; i < 300; i++ {
		rec := telemetry.MeterRecord{InPort: 0, OutPort: 1, Bytes: 1000}
		if !e.CorruptMeter(1, &rec) {
			t.Fatal("MeterCorrupt=1 did not corrupt")
		}
		if rec.Bytes > 2000 {
			t.Fatalf("corrupted bytes %d outside [0, 2*orig]", rec.Bytes)
		}
		if rec.Bytes == 0 {
			zeroed++
		}
	}
	if zeroed == 0 {
		t.Error("corruption never zeroed a record; evidence-erasure path untested")
	}
	if e.Counters.MetersCorrupted != 300 {
		t.Fatalf("MetersCorrupted = %d", e.Counters.MetersCorrupted)
	}
}

func TestCorruptStatusModes(t *testing.T) {
	e := NewEngine(Schedule{StatusCorrupt: 1}, 11)
	wiped, fabricated := 0, 0
	for i := 0; i < 300; i++ {
		st := telemetry.PortStatus{Port: 1, PausedUntil: 100, QdepthBytes: 5000}
		if !e.CorruptStatus(1, &st) {
			t.Fatal("StatusCorrupt=1 did not corrupt")
		}
		if st.PausedUntil == 0 && st.QdepthBytes == 0 {
			wiped++
		} else if st.PausedUntil == 100 {
			fabricated++
		}
	}
	if wiped == 0 || fabricated == 0 {
		t.Fatalf("expected both corruption modes: wiped=%d fabricated=%d", wiped, fabricated)
	}
}

// TestInstallSmoke wires the engine into a real system, runs the incast
// scenario under a hostile schedule, and checks every channel fired and
// diagnosis still completes.
func TestInstallSmoke(t *testing.T) {
	d, err := topo.NewChain(3, 5, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig(d.Topology))
	cfg := core.DefaultConfig()
	cfg.Collect.BaseLatency = 200 * sim.Microsecond
	cfg.Collect.PerEpochLatency = 50 * sim.Microsecond
	sched, err := ParseSchedule("poll-loss=0.3,tel-loss=0.4,meter-corrupt=0.2,status-corrupt=0.2,collect-drop=0.3,collect-lag=100us,flap=1/1@200us+300us,bw=1/0@1ms+2ms*0.5")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Install(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Install(cl, sys, *sched, 99)
	if err != nil {
		t.Fatal(err)
	}

	cl.StartFlow(d.HostsAt[0][0], d.HostsAt[1][0], 1_200_000, 0)
	cl.StartFlow(d.HostsAt[0][1], d.HostsAt[2][0], 1_500_000, 0)
	cl.StartFlow(d.HostsAt[0][2], d.HostsAt[2][1], 1_500_000, 0)
	for _, start := range []sim.Time{132 * sim.Microsecond, 394 * sim.Microsecond} {
		for i := 1; i < 5; i++ {
			cl.StartFlow(d.HostsAt[2][i], d.HostsAt[2][0], 128_000, start)
		}
	}
	cl.Run(20 * sim.Millisecond)
	results := sys.DiagnoseAll()
	t.Logf("chaos counters: %v; %d diagnoses", eng.Counters, len(results))

	c := eng.Counters
	if c.EpochsDropped == 0 || c.MetersCorrupted == 0 || c.StatusCorrupted == 0 {
		t.Errorf("telemetry channels silent: %v", c)
	}
	if c.LinkFlaps != 1 {
		t.Errorf("LinkFlaps = %d, want 1", c.LinkFlaps)
	}
	if c.BWChanges != 2 {
		t.Errorf("BWChanges = %d, want 2 (degrade + restore)", c.BWChanges)
	}
	if cl.Net.FaultDrops == 0 {
		t.Errorf("link flap dropped no packets")
	}
	// The run must still produce *some* diagnosis output path without
	// panicking; degraded-quality assertions live in internal/experiments.
	stats := sys.Collector.Stats()
	if stats.Collections > 0 && stats.DroppedDeliveries == 0 {
		t.Errorf("collect-drop=0.3 over %d collections dropped nothing", stats.Collections)
	}
	if stats.Delivered()+stats.DroppedDeliveries != stats.Collections {
		t.Errorf("delivery accounting broken: %+v", stats)
	}
}

func TestInstallRejectsInvalidSchedule(t *testing.T) {
	d, err := topo.NewChain(2, 1, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig(d.Topology))
	sys, err := core.Install(cl, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Install(cl, sys, Schedule{PollLoss: 2}, 1); err == nil {
		t.Fatal("invalid schedule installed")
	}
}

// TestFlakyProxyResets: the proxy must RST-abort the first N connections
// and then pass traffic through untouched.
func TestFlakyProxyResets(t *testing.T) {
	backend, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	go func() {
		for {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := c.Write([]byte(line)); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	p, err := NewFlakyProxy("127.0.0.1:0", backend.Addr().String(), FlakyConfig{ResetFirst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	echo := func() error {
		c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := c.Write([]byte("ping\n")); err != nil {
			return err
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			return err
		}
		if line != "ping\n" {
			t.Fatalf("echoed %q", line)
		}
		return nil
	}

	failures := 0
	for i := 0; i < 2; i++ {
		if err := echo(); err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("first two connections: %d failures, want 2", failures)
	}
	if err := echo(); err != nil {
		t.Fatalf("third connection should pass: %v", err)
	}
	if p.Resets() != 2 {
		t.Fatalf("Resets = %d, want 2", p.Resets())
	}
}

// TestFlakyProxyCorruptsChunks: with CorruptEveryNth set, forwarded
// data arrives altered — exactly one bit per due chunk — and the same
// seed flips the same bits, so a corruption-triggered failure replays.
func TestFlakyProxyCorruptsChunks(t *testing.T) {
	run := func(seed uint64) []byte {
		backend, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()
		got := make(chan []byte, 1)
		go func() {
			c, err := backend.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			b, _ := io.ReadAll(c)
			got <- b
		}()

		p, err := NewFlakyProxy("127.0.0.1:0", backend.Addr().String(),
			FlakyConfig{CorruptEveryNth: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sent := bytes.Repeat([]byte("telemetry frame bytes "), 8)
		if _, err := c.Write(sent); err != nil {
			t.Fatal(err)
		}
		c.Close()
		select {
		case b := <-got:
			if len(b) != len(sent) {
				t.Fatalf("forwarded %d bytes, want %d", len(b), len(sent))
			}
			if bytes.Equal(b, sent) {
				t.Fatal("CorruptEveryNth=1 forwarded the stream untouched")
			}
			if p.Corruptions() == 0 {
				t.Fatal("Corruptions() = 0 after a corrupted chunk")
			}
			diff := 0
			for i := range b {
				diff += bits.OnesCount8(b[i] ^ sent[i])
			}
			if diff != p.Corruptions() {
				t.Fatalf("%d bits flipped across %d corruptions, want one bit each", diff, p.Corruptions())
			}
			return b
		case <-time.After(2 * time.Second):
			t.Fatal("backend never saw the stream")
		}
		return nil
	}

	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	if c := run(43); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}
