package provenance

import (
	"testing"

	"hawkeye/internal/device"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// benchReports synthesizes busy telemetry on 8 switches of a k=4 fat
// tree: a realistic per-diagnosis report set.
func benchReports(b *testing.B) (*topo.FatTree, []*telemetry.Report) {
	ft, err := topo.NewFatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	var reports []*telemetry.Report
	for s := 0; s < 8; s++ {
		var now sim.Time
		tel, err := telemetry.New(telemetry.DefaultConfig(), ft.Switches()[s], "sw", 4, 100e9,
			func() sim.Time { return now }, func(int) int { return 10000 })
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			now = sim.Time(i) * 500
			tel.OnEnqueue(device.EnqueueEvent{
				Pkt: &packet.Packet{Type: packet.TypeData, Class: packet.ClassLossless, Size: 1078,
					Flow: packet.FiveTuple{SrcIP: uint32(i % 16), DstIP: uint32(s), SrcPort: 1, DstPort: 2, Proto: 17}},
				InPort: i % 4, OutPort: (i + 1) % 4, QueueBytes: 9000 + i, Now: now,
			})
		}
		reports = append(reports, tel.Snapshot(4))
	}
	return ft, reports
}

// BenchmarkBuild measures graph construction from a realistic report set
// (the per-diagnosis analyzer cost).
func BenchmarkBuild(b *testing.B) {
	ft, reports := benchReports(b)
	cfg := DefaultConfig(100e9, 131072)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(cfg, reports, ft.Topology)
	}
}

// BenchmarkGraphString measures rendering the same graph two ways:
// fresh, the first render of a build, and forked, a complaint's fork
// with one host leaf rendered over the build's shared text.
func BenchmarkGraphString(b *testing.B) {
	ft, reports := benchReports(b)
	g := Build(DefaultConfig(100e9, 131072), reports, ft.Topology)
	hr := &telemetry.HostReport{Host: ft.Hosts()[0], Taken: 1, RxBufferBytes: 4096, RxBufferCap: 65536, PauseTx: 3}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.rendered = new(renderMemo)
			_ = g.String()
		}
	})
	b.Run("forked", func(b *testing.B) {
		_ = g.String()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := g.Fork()
			f.AddHostReport(hr, ft.Topology)
			_ = f.String()
		}
	})
}
