package telemetry

import (
	"reflect"
	"testing"

	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

func allocTestState(t *testing.T) (*State, *sim.Time) {
	t.Helper()
	var now sim.Time
	s, err := New(DefaultConfig(), 1, "sw", 8, 100e9,
		func() sim.Time { return now }, func(int) int { return 4096 })
	if err != nil {
		t.Fatal(err)
	}
	return s, &now
}

func feed(s *State, now *sim.Time, n int) {
	for i := 0; i < n; i++ {
		*now += 100
		s.OnEnqueue(device.EnqueueEvent{
			Pkt: &packet.Packet{Type: packet.TypeData, Class: packet.ClassLossless, Size: 1078,
				Flow: packet.FiveTuple{SrcIP: uint32(i%64 + 1), DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}},
			InPort: i % 7, OutPort: 1 + i%3, QueueBytes: 20000, Now: *now,
		})
	}
}

// TestSnapshotIntoMatchesSnapshot pins that the buffer-reusing path is
// observationally identical to the allocating one, including across
// epoch-ring churn between syncs (stale buffers must be fully reset).
func TestSnapshotIntoMatchesSnapshot(t *testing.T) {
	s, now := allocTestState(t)
	var reused Report
	for round := 0; round < 5; round++ {
		feed(s, now, 300+97*round)
		fresh := s.Snapshot(4)
		s.SnapshotInto(&reused, 4)
		// Normalize empty-vs-nil slices before the deep comparison: the
		// reused report keeps zero-length buffers where the fresh one has
		// nil, and both mean "no records".
		got := reused
		if len(got.Meter) == 0 {
			got.Meter = nil
		}
		if len(got.Epochs) == 0 {
			got.Epochs = nil
		}
		for i := range got.Epochs {
			if len(got.Epochs[i].Flows) == 0 {
				got.Epochs[i].Flows = nil
			}
			if len(got.Epochs[i].Ports) == 0 {
				got.Epochs[i].Ports = nil
			}
		}
		if !reflect.DeepEqual(&got, fresh) {
			t.Fatalf("round %d: SnapshotInto diverged from Snapshot:\n got %+v\nwant %+v", round, got, fresh)
		}
	}
}

// TestOnEnqueueZeroAlloc pins the per-packet hot path: with the epoch
// ring and flow tables warm, recording an enqueue allocates nothing,
// across epoch rollovers and flow-table churn alike.
func TestOnEnqueueZeroAlloc(t *testing.T) {
	s, now := allocTestState(t)
	feed(s, now, 6000) // 4.5 epochs: every ring slot has been used
	pkt := &packet.Packet{Type: packet.TypeData, Class: packet.ClassLossless, Size: 1078,
		Flow: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}}
	ev := device.EnqueueEvent{Pkt: pkt, InPort: 0, OutPort: 1, QueueBytes: 20000}
	i := 0
	avg := testing.AllocsPerRun(2000, func() {
		*now += 100
		i++
		ev.Now = *now
		ev.Pkt.Flow.SrcPort = uint16(i)
		s.OnEnqueue(ev)
	})
	if avg != 0 {
		t.Fatalf("OnEnqueue allocates %.2f objects/op, want 0", avg)
	}
}

// TestSnapshotIntoZeroAlloc pins the telemetry buffer-reuse contract:
// once the report's buffers are warm, a per-epoch snapshot allocates
// nothing. This backs BenchmarkTelemetrySnapshot's allocs/op gate.
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	s, now := allocTestState(t)
	feed(s, now, 512)
	var rep Report
	s.SnapshotInto(&rep, 4) // warm the buffers
	avg := testing.AllocsPerRun(200, func() {
		s.SnapshotInto(&rep, 4)
	})
	if avg != 0 {
		t.Fatalf("SnapshotInto allocates %.2f objects/op with warm buffers, want 0", avg)
	}
}

// TestRecencyChecksZeroAlloc guards the per-polling-packet hot path:
// FlowPausedRecently and PortPausedRecently run on every poll multicast
// and must not allocate (the validEpochs scratch buffer).
func TestRecencyChecksZeroAlloc(t *testing.T) {
	s, now := allocTestState(t)
	feed(s, now, 512)
	ft := packet.FiveTuple{SrcIP: 5, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	avg := testing.AllocsPerRun(200, func() {
		s.FlowPausedRecently(ft)
		s.PortPausedRecently(1)
	})
	if avg != 0 {
		t.Fatalf("recency checks allocate %.2f objects/op, want 0", avg)
	}
}
