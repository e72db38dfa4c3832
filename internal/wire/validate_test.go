package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hawkeye/internal/packet"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// TestPayloadCapTable pins the cap ordering the protocol relies on:
// every known type has a cap no larger than MaxFrame, the tight
// client->server verbs are far below it, and the reply verbs that grow
// with the fabric keep the full budget.
func TestPayloadCapTable(t *testing.T) {
	for mt := MsgHello; mt <= MsgShutdown; mt++ {
		c := PayloadCap(mt)
		if c <= 0 || c > MaxFrame {
			t.Fatalf("type %d cap %d outside (0, MaxFrame]", mt, c)
		}
	}
	tight := []MsgType{MsgDiagnose, MsgHelloOK, MsgIncidents, MsgHealth, MsgShutdown,
		MsgQueryIncidents, MsgSubscribe, MsgError}
	for _, mt := range tight {
		if PayloadCap(mt) >= MaxFrame {
			t.Fatalf("type %d cap %d not tightened below MaxFrame", mt, PayloadCap(mt))
		}
	}
	for _, mt := range []MsgType{MsgReport, MsgIncidentList, MsgIncidentMatches, MsgDiagnosis} {
		if PayloadCap(mt) != MaxFrame {
			t.Fatalf("type %d cap %d, want full MaxFrame", mt, PayloadCap(mt))
		}
	}
	if PayloadCap(MsgType(200)) != MaxFrame {
		t.Fatal("unknown types must keep the global bound only")
	}
}

// TestPayloadCapEnforced proves the cap bites on both sides: an 8 MiB
// body behind a MsgDiagnose header is refused by the reader before
// allocation and by the writer before emission, with an error that still
// matches ErrFrameTooLarge.
func TestPayloadCapEnforced(t *testing.T) {
	body := make([]byte, PayloadCap(MsgDiagnose)+1)
	if err := WriteFrame(&bytes.Buffer{}, MsgDiagnose, body); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writer accepted over-cap diagnose: %v", err)
	}
	// Hostile header: claims a huge body for a tiny verb. Only the 5
	// header bytes exist, so a reader that tried to allocate would fail
	// with a truncation error instead of the cap error.
	var hdr [5]byte
	writeHeader(hdr[:], 1<<20, MsgDiagnose)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	var ce *CapError
	if !errors.As(err, &ce) {
		t.Fatalf("reader did not return CapError: %v", err)
	}
	if ce.Type != MsgDiagnose || ce.Size != 1<<20 || ce.Cap != PayloadCap(MsgDiagnose) {
		t.Fatalf("cap error fields: %+v", ce)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("CapError must match ErrFrameTooLarge")
	}
	// At the cap exactly, the frame round-trips.
	var buf bytes.Buffer
	ok := make([]byte, PayloadCap(MsgDiagnose))
	if err := WriteFrame(&buf, MsgDiagnose, ok); err != nil {
		t.Fatalf("exact-cap write rejected: %v", err)
	}
	if _, got, err := ReadFrame(&buf); err != nil || len(got) != len(ok) {
		t.Fatalf("exact-cap read: len=%d err=%v", len(got), err)
	}
}

func TestParseHello(t *testing.T) {
	good := []byte(`{"version":1,"epochNs":131072}`)
	if _, err := ParseHello(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		payload string
	}{
		{"garbage", `{{{`},
		{"wrong version", `{"version":99,"epochNs":131072}`},
		{"negative epoch", `{"version":1,"epochNs":-5}`},
		{"hour-long epoch", `{"version":1,"epochNs":9000000000000}`},
		{"giant fabric name", `{"version":1,"epochNs":1,"fabric":"` + strings.Repeat("a", 4096) + `"}`},
	}
	for _, tc := range cases {
		if _, err := ParseHello([]byte(tc.payload)); !errors.Is(err, ErrBadHello) {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// chainTopo builds host - sw0 - sw1 - host: two 2-port switches.
func chainTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.New(100e9, 2000)
	h0 := tp.AddHost("h0")
	s0 := tp.AddSwitch("s0")
	s1 := tp.AddSwitch("s1")
	h1 := tp.AddHost("h1")
	tp.Connect(h0, s0)
	tp.Connect(s0, s1)
	tp.Connect(s1, h1)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	return tp
}

// goodReport is a minimal report switch 1 (s0, 2 ports) could honestly
// produce.
func goodReport() *telemetry.Report {
	return &telemetry.Report{
		Switch: 1, Taken: 5000, NumPorts: 2, NumEpochs: 4, FlowSlots: 64,
		Epochs: []telemetry.EpochData{{
			Ring: 1, ID: 9, Start: 4000,
			Flows: []telemetry.FlowRecord{{
				Tuple:   packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17},
				OutPort: 1, PktCount: 10, PausedCount: 4, DeepCount: 2, QdepthSum: 100, Bytes: 10240,
			}},
			Ports: []telemetry.PortRecord{{Port: 1, PktCount: 10, PausedCount: 4, QdepthSum: 100, Bytes: 10240}},
		}, {
			Ring: 0, ID: 8, Start: 3000,
		}},
		Meter:  []telemetry.MeterRecord{{InPort: 0, OutPort: 1, Bytes: 10240}},
		Status: []telemetry.PortStatus{{Port: 1, PausedUntil: 5500, RxPause: 2, RxResume: 1, QdepthBytes: 4096}},
	}
}

func TestValidatorAdmitsHonestReport(t *testing.T) {
	v := NewValidator(chainTopo(t))
	if err := v.CheckReport(goodReport()); err != nil {
		t.Fatal(err)
	}
	// A fresher snapshot from the same switch is fine; so is an equal one
	// (idempotent re-push after a reconnect).
	r := goodReport()
	r.Taken = 6000
	for i := range r.Epochs {
		// Keep epochs within the new snapshot.
		r.Epochs[i].Start += 1000
	}
	r.Status[0].PausedUntil = 6500
	if err := v.CheckReport(r); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckReport(r); err != nil {
		t.Fatalf("equal-time re-push rejected: %v", err)
	}
}

func TestValidatorRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(r *telemetry.Report)
		unknown bool // switch attribution impossible
	}{
		{"switch outside topology", func(r *telemetry.Report) { r.Switch = 200 }, true},
		{"negative switch", func(r *telemetry.Report) { r.Switch = -1 }, true},
		{"host posing as switch", func(r *telemetry.Report) { r.Switch = 0 }, true},
		{"negative snapshot time", func(r *telemetry.Report) { r.Taken = -1 }, false},
		{"port count beyond topology", func(r *telemetry.Report) { r.NumPorts = 64 }, false},
		{"zero ports", func(r *telemetry.Report) { r.NumPorts = 0 }, false},
		{"giant epoch ring", func(r *telemetry.Report) { r.NumEpochs = 1 << 20 }, false},
		{"giant flow table", func(r *telemetry.Report) { r.FlowSlots = 1 << 30 }, false},
		{"more epochs than ring slots", func(r *telemetry.Report) { r.NumEpochs = 1 }, false},
		{"ring index out of range", func(r *telemetry.Report) { r.Epochs[0].Ring = 7 }, false},
		{"epoch from the future", func(r *telemetry.Report) { r.Epochs[0].Start = r.Taken + 1 }, false},
		{"epochs not newest-first", func(r *telemetry.Report) { r.Epochs[1].Start = r.Epochs[0].Start + 500 }, false},
		{"flow egress port out of range", func(r *telemetry.Report) { r.Epochs[0].Flows[0].OutPort = 2 }, false},
		{"paused exceeds packets", func(r *telemetry.Report) { r.Epochs[0].Flows[0].PausedCount = 11 }, false},
		{"deep exceeds packets", func(r *telemetry.Report) { r.Epochs[0].Flows[0].DeepCount = 11 }, false},
		{"port record out of range", func(r *telemetry.Report) { r.Epochs[0].Ports[0].Port = 9 }, false},
		{"port paused exceeds packets", func(r *telemetry.Report) { r.Epochs[0].Ports[0].PausedCount = 99 }, false},
		{"meter in-port out of range", func(r *telemetry.Report) { r.Meter[0].InPort = 5 }, false},
		{"meter out-port out of range", func(r *telemetry.Report) { r.Meter[0].OutPort = 5 }, false},
		{"status port out of range", func(r *telemetry.Report) { r.Status[0].Port = 3 }, false},
		{"negative pause deadline", func(r *telemetry.Report) { r.Status[0].PausedUntil = -4 }, false},
		{"pause a minute in the future", func(r *telemetry.Report) { r.Status[0].PausedUntil = r.Taken + 60_000_000_000 }, false},
		{"negative queue depth", func(r *telemetry.Report) { r.Status[0].QdepthBytes = -1 }, false},
		{"duplicate status records", func(r *telemetry.Report) { r.Status = append(r.Status, r.Status[0], r.Status[0]) }, false},
	}
	for _, tc := range cases {
		v := NewValidator(chainTopo(t))
		r := goodReport()
		tc.mutate(r)
		err := v.CheckReport(r)
		var re *ReportError
		if !errors.As(err, &re) {
			t.Fatalf("%s: want ReportError, got %v", tc.name, err)
		}
		if re.SwitchKnown == tc.unknown {
			t.Fatalf("%s: SwitchKnown=%v, want %v", tc.name, re.SwitchKnown, !tc.unknown)
		}
		// A rejected report must not advance the monotonicity watermark.
		if err := v.CheckReport(goodReport()); err != nil {
			t.Fatalf("%s: honest report rejected after a bad one: %v", tc.name, err)
		}
	}
}

// TestValidatorMonotonicity: a snapshot older than one already admitted
// for the same switch is a replay and must be refused; other switches
// are unaffected.
func TestValidatorMonotonicity(t *testing.T) {
	v := NewValidator(chainTopo(t))
	if err := v.CheckReport(goodReport()); err != nil {
		t.Fatal(err)
	}
	stale := goodReport()
	stale.Taken = 4999
	stale.Status[0].PausedUntil = 5400
	if err := v.CheckReport(stale); err == nil {
		t.Fatal("regressed snapshot admitted")
	}
	other := goodReport()
	other.Switch = 2
	other.Taken = 10 // older than switch 1's watermark, but its own first
	other.Epochs = nil
	other.Status = nil
	other.Meter = nil
	if err := v.CheckReport(other); err != nil {
		t.Fatalf("per-switch watermark leaked across switches: %v", err)
	}
}

func TestDiagnoseRequestRejectsTrailingGarbage(t *testing.T) {
	ft := packet.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17}
	body := EncodeDiagnoseRequest(ft, 99)
	// The retired bare tuple, stray bytes after the time, and a payload
	// short of its own declared count are all malformed.
	for _, n := range []int{packet.FiveTupleLen, packet.FiveTupleLen + 1, packet.FiveTupleLen + 7, packet.FiveTupleLen + 9, 64} {
		b := make([]byte, n)
		copy(b, body)
		if n > len(body) {
			b[len(body)] = 1
		}
		if _, _, _, err := DecodeDiagnoseRequest(b); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%d-byte diagnose payload: %v", n, err)
		}
	}
	withPath := EncodeDiagnoseRequest(ft, 99, 16, 20)
	for name, b := range map[string][]byte{
		"zero count":     append(append([]byte(nil), body...), 0),
		"count over 16":  append(append(append([]byte(nil), body...), MaxDeclaredPath+1), make([]byte, 4*(MaxDeclaredPath+1))...),
		"trailing bytes": append(append([]byte(nil), withPath...), 0),
		"truncated ID":   withPath[:len(withPath)-1],
	} {
		if _, _, _, err := DecodeDiagnoseRequest(b); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestValidatorCheckPath: a declared path must name switches of the
// handshake topology, each once.
func TestValidatorCheckPath(t *testing.T) {
	tp := chainTopo(t)
	v := NewValidator(tp)
	var sws []topo.NodeID
	host := topo.NodeID(-1)
	for _, n := range tp.Nodes {
		if n.Kind == topo.KindSwitch {
			sws = append(sws, n.ID)
		} else {
			host = n.ID
		}
	}
	if err := v.CheckPath(sws); err != nil {
		t.Fatalf("honest path rejected: %v", err)
	}
	for name, path := range map[string][]topo.NodeID{
		"host":     {sws[0], host},
		"unknown":  {topo.NodeID(len(tp.Nodes))},
		"negative": {-1},
		"repeat":   {sws[0], sws[1], sws[0]},
	} {
		if err := v.CheckPath(path); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
