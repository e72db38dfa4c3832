package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"

	"hawkeye/internal/cluster"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []struct {
		ts   sim.Time
		data []byte
	}{
		{0, []byte{1}},
		{123456789, bytes.Repeat([]byte{0xAB}, 60)},
		{2*sim.Second + 5, bytes.Repeat([]byte{0xCD}, 1500)},
	}
	for _, r := range recs {
		if err := w.WritePacket(r.ts, r.data, len(r.data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	pr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if pr.LinkType != LinkTypeEthernet {
		t.Fatalf("link type %d", pr.LinkType)
	}
	for i, want := range recs {
		got, err := pr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.TS != want.ts || !bytes.Equal(got.Data, want.data) {
			t.Fatalf("record %d mismatch: ts=%v len=%d", i, got.TS, len(got.Data))
		}
	}
	if _, err := pr.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(ts uint32, payload []byte) bool {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.WritePacket(sim.Time(ts), payload, len(payload)); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		pr, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := pr.Next()
		if err != nil {
			return false
		}
		return got.TS == sim.Time(ts) && bytes.Equal(got.Data, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func twoHostTopo() (*topo.Topology, topo.NodeID, topo.NodeID, topo.NodeID) {
	tp := topo.New(100e9, sim.Microsecond)
	a := tp.AddHost("a")
	b := tp.AddHost("b")
	sw := tp.AddSwitch("sw")
	tp.Connect(a, sw)
	tp.Connect(b, sw)
	return tp, a, b, sw
}

func TestEncodeDecodeDataFrame(t *testing.T) {
	tp, a, _, _ := twoHostTopo()
	pkt := &packet.Packet{
		Type:   packet.TypeData,
		Flow:   packet.FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 1024, DstPort: 4791, Proto: 17},
		FlowID: 42,
		Class:  packet.ClassLossless,
		Size:   1078,
		Seq:    7,
		Last:   true,
		ECN:    true,
	}
	frame, err := EncodeFrame(tp, a, 0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	// pcap frames omit preamble/IPG/FCS (24 of the 38 overhead bytes).
	if want := pkt.Size - (packet.EthOverhead - 14); len(frame) != want {
		t.Fatalf("frame len %d, want %d", len(frame), want)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if d.IsPFC {
		t.Fatal("data frame decoded as PFC")
	}
	if d.Flow != pkt.Flow {
		t.Fatalf("5-tuple mangled: %+v", d.Flow)
	}
	if d.Class != packet.ClassLossless || !d.ECNCE || !d.Last || d.Seq != 7 || d.FlowID != 42 {
		t.Fatalf("fields mangled: %+v", d)
	}
	if d.Opcode != bthOpcode[packet.TypeData] {
		t.Fatalf("opcode %#x", d.Opcode)
	}
}

func TestEncodeDecodePFCFrame(t *testing.T) {
	tp, _, _, sw := twoHostTopo()
	f := &packet.PFCFrame{ClassEnable: 1 << packet.ClassLossless}
	f.Quanta[packet.ClassLossless] = 0xBEEF
	pkt := &packet.Packet{Type: packet.TypePFC, Class: packet.ClassControl, Size: packet.PFCFrameSize, PFC: f}
	frame, err := EncodeFrame(tp, sw, 0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != minFrameLen {
		t.Fatalf("PFC frame len %d, want %d", len(frame), minFrameLen)
	}
	if !bytes.Equal(frame[0:6], pfcDstMAC[:]) {
		t.Fatal("PFC frame not addressed to the MAC-control multicast")
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsPFC || d.PFC == nil {
		t.Fatal("not decoded as PFC")
	}
	if !d.PFC.Paused(packet.ClassLossless) || d.PFC.Quanta[packet.ClassLossless] != 0xBEEF {
		t.Fatalf("PFC payload mangled: %v", d.PFC)
	}
}

func TestIPChecksumValid(t *testing.T) {
	tp, a, _, _ := twoHostTopo()
	pkt := &packet.Packet{
		Type: packet.TypeData,
		Flow: packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17},
		Size: 500,
	}
	frame, err := EncodeFrame(tp, a, 0, pkt)
	if err != nil {
		t.Fatal(err)
	}
	// Verify per RFC 1071: summing the full header including the stored
	// checksum must yield 0xFFFF.
	ip := frame[ethHeaderLen+vlanTagLen:][:ipv4HeaderLen]
	var sum uint32
	for i := 0; i < ipv4HeaderLen; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	if sum != 0xFFFF {
		t.Fatalf("IP header checksum invalid: folded sum %#x", sum)
	}
}

func TestTapCapturesClusterTraffic(t *testing.T) {
	d, err := topo.NewChain(2, 2, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig())
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tap := AttachTap(cl.Net, w)
	cl.StartFlow(d.HostsAt[0][0], d.HostsAt[1][0], 100_000, 0)
	cl.Run(5 * sim.Millisecond)
	if tap.Err != nil {
		t.Fatal(tap.Err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Packets != cl.Net.Delivered {
		t.Fatalf("captured %d packets, fabric delivered %d", w.Packets, cl.Net.Delivered)
	}
	// Read back and account by frame type: at least 100 data frames
	// (100 KB / 1 KB MTU) and their ACKs must be present and parseable.
	pr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data, acks := 0, 0
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFrame(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		switch dec.Opcode {
		case bthOpcode[packet.TypeData]:
			data++
		case bthOpcode[packet.TypeACK]:
			acks++
		}
	}
	if data < 100 {
		t.Fatalf("captured %d data frames, want >= 100", data)
	}
	if acks == 0 {
		t.Fatal("no ACK frames captured")
	}
}

func TestTapFilter(t *testing.T) {
	d, err := topo.NewChain(2, 1, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.ComputeRouting(d.Topology)
	cl := cluster.New(d.Topology, r, cluster.DefaultConfig())
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tap := AttachTap(cl.Net, w)
	tap.Filter = func(_ topo.NodeID, _ int, pkt *packet.Packet) bool {
		return pkt.Type == packet.TypeData
	}
	cl.StartFlow(d.HostsAt[0][0], d.HostsAt[1][0], 50_000, 0)
	cl.Run(5 * sim.Millisecond)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	pr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFrame(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Opcode != bthOpcode[packet.TypeData] {
			t.Fatalf("filter leaked a non-data frame (opcode %#x)", dec.Opcode)
		}
	}
	if w.Packets == 0 {
		t.Fatal("filter captured nothing")
	}
}

// TestFrameRoundTripProperty fuzzes the data-frame codec: random tuples,
// classes, flags and sizes must survive encode/decode.
func TestFrameRoundTripProperty(t *testing.T) {
	tp, a, _, _ := twoHostTopo()
	prop := func(srcIP, dstIP uint32, sp, dp uint16, class uint8, seq uint32, size uint16, last, ecn bool) bool {
		pkt := &packet.Packet{
			Type:  packet.TypeData,
			Flow:  packet.FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: sp, DstPort: dp, Proto: 17},
			Class: class % packet.NumClasses,
			Size:  int(size%2000) + 100,
			Seq:   seq,
			Last:  last,
			ECN:   ecn,
		}
		frame, err := EncodeFrame(tp, a, 0, pkt)
		if err != nil {
			return false
		}
		d, err := DecodeFrame(frame)
		if err != nil {
			return false
		}
		return d.Flow == pkt.Flow && d.Class == pkt.Class &&
			d.Seq == seq && d.Last == last && d.ECNCE == ecn && !d.IsPFC
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPFCFrameRoundTripProperty fuzzes the 802.1Qbb codec through the
// capture path.
func TestPFCFrameRoundTripProperty(t *testing.T) {
	tp, _, _, sw := twoHostTopo()
	prop := func(enable uint8, quanta [packet.NumClasses]uint16) bool {
		f := &packet.PFCFrame{ClassEnable: enable, Quanta: quanta}
		pkt := &packet.Packet{Type: packet.TypePFC, Class: packet.ClassControl, Size: packet.PFCFrameSize, PFC: f}
		frame, err := EncodeFrame(tp, sw, 0, pkt)
		if err != nil {
			return false
		}
		d, err := DecodeFrame(frame)
		if err != nil || !d.IsPFC {
			return false
		}
		return d.PFC.ClassEnable == enable && d.PFC.Quanta == quanta
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderRejectsCorruptHeaders(t *testing.T) {
	// Wrong magic.
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero magic accepted")
	}
	// Short header.
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header accepted")
	}
	// Valid header, record claiming capLen > snaplen.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Flush()
	hostile := append(buf.Bytes(), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}...)
	pr, err := NewReader(bytes.NewReader(hostile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pr.Next(); err == nil {
		t.Fatal("oversize record accepted")
	}
}

func TestDecodeFrameNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeFrame(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
