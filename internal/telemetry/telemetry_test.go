package telemetry

import (
	"testing"
	"testing/quick"

	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

const testBW = 100e9

func testState(t *testing.T, cfg Config) (*State, *sim.Time) {
	t.Helper()
	now := new(sim.Time)
	s, err := New(cfg, 1, "sw1", 8, testBW, func() sim.Time { return *now }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, now
}

func smallCfg() Config {
	return Config{EpochBits: 14, NumEpochs: 4, FlowSlots: 64, Lookback: 2, FlowTelemetry: true}
}

func dataEvent(ft packet.FiveTuple, in, out, size, qBytes int, paused bool, now sim.Time) device.EnqueueEvent {
	return device.EnqueueEvent{
		Pkt:        &packet.Packet{Type: packet.TypeData, Flow: ft, Class: packet.ClassLossless, Size: size},
		InPort:     in,
		OutPort:    out,
		QueueBytes: qBytes,
		Paused:     paused,
		Now:        now,
	}
}

func ft(n uint32) packet.FiveTuple {
	return packet.FiveTuple{SrcIP: 0x0A000000 + n, DstIP: 0x0A0000FF, SrcPort: 4791, DstPort: 4791, Proto: 17}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{EpochBits: 20, NumEpochs: 3, FlowSlots: 64, Lookback: 1},
		{EpochBits: 5, NumEpochs: 4, FlowSlots: 64, Lookback: 1},
		{EpochBits: 20, NumEpochs: 4, FlowSlots: 0, Lookback: 1},
		{EpochBits: 20, NumEpochs: 4, FlowSlots: 64, Lookback: 9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestFlowAccumulation(t *testing.T) {
	s, now := testState(t, smallCfg())
	f := ft(1)
	const deep = 2 * deepQdepthBytes
	for i := 0; i < 5; i++ {
		s.OnEnqueue(dataEvent(f, 2, 3, 1000, deep, i%2 == 0, *now))
	}
	// An unpaused enqueue below the deep bound is not contention evidence.
	s.OnEnqueue(dataEvent(f, 2, 3, 1000, deepQdepthBytes-1, false, *now))
	rep := s.Snapshot(1)
	if len(rep.Epochs) != 1 || len(rep.Epochs[0].Flows) != 1 {
		t.Fatalf("snapshot: %+v", rep.Epochs)
	}
	fr := rep.Epochs[0].Flows[0]
	if fr.PktCount != 6 || fr.PausedCount != 3 || fr.DeepCount != 2 || fr.Bytes != 6000 || fr.OutPort != 3 {
		t.Fatalf("flow record %+v", fr)
	}
	if fr.AvgQdepth() != float64(deep) {
		t.Fatalf("avg qdepth %v, want %v", fr.AvgQdepth(), deep)
	}
}

func TestPortAndMeterAccumulation(t *testing.T) {
	s, now := testState(t, smallCfg())
	s.OnEnqueue(dataEvent(ft(1), 0, 5, 1000, 100, true, *now))
	s.OnEnqueue(dataEvent(ft(2), 1, 5, 500, 200, false, *now))
	rep := s.Snapshot(1)
	if len(rep.Epochs[0].Ports) != 1 {
		t.Fatalf("ports: %+v", rep.Epochs[0].Ports)
	}
	pr := rep.Epochs[0].Ports[0]
	if pr.Port != 5 || pr.PktCount != 2 || pr.PausedCount != 1 || pr.Bytes != 1500 {
		t.Fatalf("port record %+v", pr)
	}
	if got := s.MeterRecent(0, 5); got != 1000 {
		t.Fatalf("meter[0][5] = %d, want 1000", got)
	}
	if got := s.MeterRecent(1, 5); got != 500 {
		t.Fatalf("meter[1][5] = %d, want 500", got)
	}
	if got := s.MeterRecent(2, 5); got != 0 {
		t.Fatalf("meter[2][5] = %d, want 0", got)
	}
}

func TestLocallyGeneratedSkipsMeter(t *testing.T) {
	s, now := testState(t, smallCfg())
	s.OnEnqueue(dataEvent(ft(1), -1, 2, 800, 0, false, *now))
	rep := s.Snapshot(1)
	if len(rep.Meter) != 0 {
		t.Fatalf("meter recorded for CPU-originated packet: %+v", rep.Meter)
	}
}

func TestControlClassIgnored(t *testing.T) {
	s, now := testState(t, smallCfg())
	ev := dataEvent(ft(1), 0, 1, 84, 0, false, *now)
	ev.Pkt.Class = packet.ClassControl
	s.OnEnqueue(ev)
	rep := s.Snapshot(1)
	if len(rep.Epochs) != 0 {
		t.Fatalf("control packet created telemetry: %+v", rep.Epochs)
	}
}

func TestCollisionEviction(t *testing.T) {
	cfg := smallCfg()
	cfg.FlowSlots = 1 // force collisions
	s, now := testState(t, cfg)
	s.OnEnqueue(dataEvent(ft(1), 0, 1, 1000, 0, false, *now))
	s.OnEnqueue(dataEvent(ft(2), 0, 1, 1000, 0, false, *now))
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	rep := s.Snapshot(1)
	// Both flows visible: one live slot + one evicted record.
	if got := len(rep.Epochs[0].Flows); got != 2 {
		t.Fatalf("flows in snapshot = %d, want 2 (live + evicted)", got)
	}
}

func TestEpochRolloverAndWraparound(t *testing.T) {
	cfg := smallCfg()
	s, now := testState(t, cfg)
	epoch := cfg.EpochSize()
	f := ft(1)
	s.OnEnqueue(dataEvent(f, 0, 1, 1000, 0, false, *now))
	// Advance one epoch: new epoch entry, old one still valid.
	*now += epoch
	s.OnEnqueue(dataEvent(f, 0, 1, 1000, 0, false, *now))
	rep := s.Snapshot(4)
	if len(rep.Epochs) != 2 {
		t.Fatalf("expected 2 valid epochs, got %d", len(rep.Epochs))
	}
	// Jump a full ring cycle and write into the slot that held the first
	// epoch: the wraparound rule resets it lazily on first touch. The
	// other old slot is retained (registers keep their values until
	// overwritten) but must carry its ORIGINAL start label.
	*now += epoch * sim.Time(cfg.NumEpochs)
	s.OnEnqueue(dataEvent(f, 0, 1, 500, 0, false, *now))
	rep = s.Snapshot(4)
	if len(rep.Epochs) != 2 {
		t.Fatalf("epochs after wraparound: %d, want 2 (fresh + retained)", len(rep.Epochs))
	}
	fresh, retained := rep.Epochs[0], rep.Epochs[1]
	if fresh.Start != epoch*sim.Time(cfg.NumEpochs+1) {
		t.Fatalf("fresh epoch start %v, want %v", fresh.Start, epoch*sim.Time(cfg.NumEpochs+1))
	}
	if fresh.Flows[0].Bytes != 500 {
		t.Fatalf("stale counters survived reset: %+v", fresh.Flows[0])
	}
	if retained.Start != 0 {
		t.Fatalf("retained epoch start %v, want 0", retained.Start)
	}
	if retained.Flows[0].Bytes != 1000 {
		t.Fatalf("retained counters corrupted: %+v", retained.Flows[0])
	}
}

func TestValidEpochExpiry(t *testing.T) {
	cfg := smallCfg()
	s, now := testState(t, cfg)
	s.OnEnqueue(dataEvent(ft(1), 0, 1, 1000, 0, true, *now))
	if !s.PortPausedRecently(1) {
		t.Fatal("fresh paused enqueue not visible")
	}
	// After the ring wraps past the write, the data must no longer count
	// as recent.
	*now += cfg.EpochSize() * sim.Time(cfg.NumEpochs+1)
	if s.PortPausedRecently(1) {
		t.Fatal("expired epoch still considered recent")
	}
}

func TestFlowPausedRecently(t *testing.T) {
	s, now := testState(t, smallCfg())
	f := ft(7)
	s.OnEnqueue(dataEvent(f, 0, 4, 1000, 0, false, *now))
	out, paused, found := s.FlowPausedRecently(f)
	if !found || paused || out != 4 {
		t.Fatalf("unpaused flow: out=%d paused=%v found=%v", out, paused, found)
	}
	s.OnEnqueue(dataEvent(f, 0, 4, 1000, 0, true, *now))
	if _, paused, _ := s.FlowPausedRecently(f); !paused {
		t.Fatal("paused enqueue not detected")
	}
	if _, _, found := s.FlowPausedRecently(ft(9)); found {
		t.Fatal("unknown flow reported found")
	}
}

func TestLookbackSpansPreviousEpoch(t *testing.T) {
	cfg := smallCfg()
	s, now := testState(t, cfg)
	f := ft(3)
	s.OnEnqueue(dataEvent(f, 2, 6, 1000, 0, true, *now))
	*now += cfg.EpochSize() // move into the next epoch
	if _, paused, found := s.FlowPausedRecently(f); !found || !paused {
		t.Fatal("lookback missed previous epoch")
	}
	if s.MeterRecent(2, 6) != 1000 {
		t.Fatal("meter lookback missed previous epoch")
	}
}

func TestOnPFCUpdatesStatus(t *testing.T) {
	s, now := testState(t, smallCfg())
	if s.PortPausedNow(3) {
		t.Fatal("port paused before any PFC")
	}
	s.OnPFC(3, packet.NewPause(packet.ClassLossless, 1000), *now)
	if !s.PortPausedNow(3) {
		t.Fatal("port not paused after PAUSE frame")
	}
	s.OnPFC(3, packet.NewResume(packet.ClassLossless), *now)
	if s.PortPausedNow(3) {
		t.Fatal("port still paused after RESUME")
	}
	rep := s.Snapshot(1)
	if rep.Status[3].RxPause != 1 || rep.Status[3].RxResume != 1 {
		t.Fatalf("status counters %+v", rep.Status[3])
	}
}

func TestSnapshotZeroFiltering(t *testing.T) {
	s, now := testState(t, smallCfg())
	s.OnEnqueue(dataEvent(ft(1), 0, 1, 1000, 0, false, *now))
	rep := s.Snapshot(4)
	if rep.WireSize() >= rep.FullDumpSize() {
		t.Fatalf("zero-filtered size %d not below full dump %d", rep.WireSize(), rep.FullDumpSize())
	}
	// One flow in a 64-slot table: reduction must exceed 80% (Fig. 14a).
	if ratio := float64(rep.WireSize()) / float64(rep.FullDumpSize()); ratio > 0.2 {
		t.Fatalf("reduction ratio %.2f, want < 0.2", ratio)
	}
}

func TestReportRoundTrip(t *testing.T) {
	s, now := testState(t, smallCfg())
	for i := uint32(0); i < 10; i++ {
		s.OnEnqueue(dataEvent(ft(i), int(i%4), int(i%8), 1000+int(i), int(i)*100, i%3 == 0, *now))
	}
	s.OnPFC(2, packet.NewPause(packet.ClassLossless, 500), *now)
	in := s.Snapshot(4)
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != in.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(b), in.WireSize())
	}
	var out Report
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if out.Switch != in.Switch || out.Taken != in.Taken || len(out.Epochs) != len(in.Epochs) {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	for e := range in.Epochs {
		ie, oe := in.Epochs[e], out.Epochs[e]
		if len(ie.Flows) != len(oe.Flows) || len(ie.Ports) != len(oe.Ports) {
			t.Fatalf("epoch %d shape mismatch", e)
		}
		for i := range ie.Flows {
			if ie.Flows[i] != oe.Flows[i] {
				t.Fatalf("flow %d mismatch: %+v vs %+v", i, ie.Flows[i], oe.Flows[i])
			}
		}
	}
	if len(in.Meter) == 0 || len(in.Meter) != len(out.Meter) {
		t.Fatalf("meter shape mismatch: %d vs %d", len(in.Meter), len(out.Meter))
	}
	for i := range in.Meter {
		if in.Meter[i] != out.Meter[i] {
			t.Fatalf("meter %d mismatch", i)
		}
	}
	for i := range in.Status {
		if in.Status[i] != out.Status[i] {
			t.Fatalf("status %d mismatch", i)
		}
	}
}

func TestReportRejectsTruncation(t *testing.T) {
	s, now := testState(t, smallCfg())
	s.OnEnqueue(dataEvent(ft(1), 0, 1, 1000, 0, false, *now))
	b, _ := s.Snapshot(1).MarshalBinary()
	for _, cut := range []int{1, 5, len(b) / 2, len(b) - 1} {
		var out Report
		if err := out.UnmarshalBinary(b[:cut]); err == nil {
			t.Fatalf("truncated report (%d bytes) accepted", cut)
		}
	}
}

func TestEpochIndexBitsProperty(t *testing.T) {
	// The (index, id) pair derived from a timestamp must be consistent:
	// timestamps within the same epoch agree, adjacent epochs differ in
	// index, and id increments every NumEpochs epochs.
	cfg := smallCfg()
	s, now := testState(t, cfg)
	f := func(raw uint32) bool {
		base := sim.Time(raw) * 7 // arbitrary spread
		*now = base
		ep1 := s.epochAt(base)
		ep2 := s.epochAt(base + 1)
		return ep1 == ep2 || (uint64(base)>>cfg.EpochBits) != (uint64(base+1)>>cfg.EpochBits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReportUnmarshalNeverPanics feeds random garbage to the report
// decoder: every input must produce a clean error or a valid report,
// never a panic or an over-allocation (the analyzer parses bytes from
// the network).
func TestReportUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var rep Report
		_ = rep.UnmarshalBinary(data) // error or not — just no panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Truncations of a VALID report must all error, not mis-parse.
	s, now := testState(t, smallCfg())
	for i := 0; i < 10; i++ {
		*now = sim.Time(i) * 100
		s.OnEnqueue(dataEvent(ft(uint32(i)), 0, 1, 1000, 9000, false, *now))
	}
	rep := s.Snapshot(4)
	data, err := rep.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 7 {
		var out Report
		if err := out.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
