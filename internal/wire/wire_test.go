package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hawkeye/internal/packet"
	"hawkeye/internal/topo"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		t MsgType
		p []byte
	}{
		{MsgHello, nil},
		{MsgHelloOK, []byte{}},
		{MsgReport, []byte("x")},
		{MsgReport, bytes.Repeat([]byte{7}, 10000)},
	}
	for i, fr := range frames {
		if err := WriteFrame(&buf, fr.t, fr.p); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	for i, fr := range frames {
		mt, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if mt != fr.t || !bytes.Equal(got, fr.p) {
			t.Fatalf("frame %d mismatch: type=%d len=%d", i, mt, len(got))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(mt uint8, payload []byte) bool {
		var buf bytes.Buffer
		err := WriteFrame(&buf, MsgType(mt), payload)
		if len(payload) > PayloadCap(MsgType(mt)) {
			// Over the type's cap: the writer must refuse.
			return err != nil
		}
		if err != nil {
			return false
		}
		got, data, err := ReadFrame(&buf)
		return err == nil && got == MsgType(mt) && bytes.Equal(data, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	big := make([]byte, MaxFrame+1)
	if err := WriteFrame(io.Discard, MsgReport, big); err != ErrFrameTooLarge {
		t.Fatalf("writer accepted oversize frame: %v", err)
	}
	// A hostile header claiming an oversize body must be rejected before
	// allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgReport)}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Fatalf("reader accepted oversize frame: %v", err)
	}
}

func TestTruncatedFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgReport, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Truncate inside the header.
	if _, _, err := ReadFrame(bytes.NewReader(whole[:3])); err == nil ||
		!strings.Contains(err.Error(), "header") {
		t.Fatalf("header truncation: %v", err)
	}
	// Truncate inside the body.
	if _, _, err := ReadFrame(bytes.NewReader(whole[:8])); err == nil ||
		!strings.Contains(err.Error(), "body") {
		t.Fatalf("body truncation: %v", err)
	}
}

func TestDiagnoseRequestRoundTrip(t *testing.T) {
	want := packet.FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000010, SrcPort: 1027, DstPort: 4791, Proto: 17}
	full := make([]topo.NodeID, MaxDeclaredPath)
	for i := range full {
		full[i] = topo.NodeID(100 + i)
	}
	for _, path := range [][]topo.NodeID{nil, {16, 0, 20}, full} {
		b := EncodeDiagnoseRequest(want, 123456789, path...)
		got, at, gotPath, err := DecodeDiagnoseRequest(b)
		if err != nil {
			t.Fatalf("%d-switch path: %v", len(path), err)
		}
		if got != want || at != 123456789 || !reflect.DeepEqual(gotPath, path) {
			t.Fatalf("request mangled: %+v at=%d path=%v, want path %v", got, at, gotPath, path)
		}
		if len(b) > PayloadCap(MsgDiagnose) {
			t.Fatalf("%d-switch request is %d bytes, over the %d-byte cap", len(path), len(b), PayloadCap(MsgDiagnose))
		}
	}
	// A request declaring no path keeps the 21-byte shape.
	if n := len(EncodeDiagnoseRequest(want, 1)); n != packet.FiveTupleLen+8 {
		t.Fatalf("pathless request is %d bytes, want %d", n, packet.FiveTupleLen+8)
	}
	if _, _, _, err := DecodeDiagnoseRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("short request accepted")
	}
}

// TestMaxFrameBoundary pins the exact boundary for the fleet message
// types: a body of exactly MaxFrame round-trips, one byte more is
// rejected on both the write and the read path before allocation.
func TestMaxFrameBoundary(t *testing.T) {
	var buf bytes.Buffer
	exact := make([]byte, MaxFrame)
	exact[0], exact[MaxFrame-1] = 0xAB, 0xCD
	if err := WriteFrame(&buf, MsgIncidentEvent, exact); err != nil {
		t.Fatalf("exact-MaxFrame write rejected: %v", err)
	}
	mt, got, err := ReadFrame(&buf)
	if err != nil || mt != MsgIncidentEvent || len(got) != MaxFrame {
		t.Fatalf("exact-MaxFrame read: type=%d len=%d err=%v", mt, len(got), err)
	}
	if got[0] != 0xAB || got[MaxFrame-1] != 0xCD {
		t.Fatal("exact-MaxFrame body corrupted")
	}
	if err := WriteFrame(io.Discard, MsgQueryIncidents, make([]byte, MaxFrame+1)); err != ErrFrameTooLarge {
		t.Fatalf("MaxFrame+1 write accepted: %v", err)
	}
	var hdr [5]byte
	writeHeader(hdr[:], MaxFrame+1, MsgQueryIncidents)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); err != ErrFrameTooLarge {
		t.Fatalf("MaxFrame+1 read accepted: %v", err)
	}
}

func writeHeader(b []byte, n int, t MsgType) {
	b[0], b[1], b[2], b[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	b[4] = byte(t)
}

// TestTruncatedNewMessageFrames covers the fleet frames: a partial
// length prefix and a truncated body both return clean, descriptive
// errors, never io.EOF masquerading as a frame boundary.
func TestTruncatedNewMessageFrames(t *testing.T) {
	for _, mt := range []MsgType{MsgQueryIncidents, MsgSubscribe, MsgIncidentEvent} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, mt, []byte(`{"kind":"opened"}`)); err != nil {
			t.Fatal(err)
		}
		whole := buf.Bytes()
		// Partial length prefix: 1..4 bytes of the 5-byte header.
		for cut := 1; cut < 5; cut++ {
			_, _, err := ReadFrame(bytes.NewReader(whole[:cut]))
			if err == nil || err == io.EOF || !strings.Contains(err.Error(), "header") {
				t.Fatalf("type %d cut %d: %v", mt, cut, err)
			}
		}
		// Truncated body.
		_, _, err := ReadFrame(bytes.NewReader(whole[:7]))
		if err == nil || !strings.Contains(err.Error(), "body") {
			t.Fatalf("type %d body truncation: %v", mt, err)
		}
	}
}

// TestUnknownTypeSkippable backs the package doc's claim that unknown
// types are easy to handle: the reader surfaces them intact (no error),
// Known reports them unknown, and the caller can skip to the next frame.
func TestUnknownTypeSkippable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgType(200), []byte("future frame")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgIncidentEvent, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	mt, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("unknown type errored: %v", err)
	}
	if Known(mt) {
		t.Fatalf("Known(%d) = true", mt)
	}
	// Skipping it lands cleanly on the next frame.
	mt, payload, err := ReadFrame(&buf)
	if err != nil || mt != MsgIncidentEvent || string(payload) != "{}" {
		t.Fatalf("frame after skip: type=%d payload=%q err=%v", mt, payload, err)
	}
	// Every defined type is Known; the retired types and the neighbors
	// are not.
	for mt := MsgHello; mt <= MsgHostReport; mt++ {
		if retired := mt == 7 || mt == 8; Known(mt) == retired {
			t.Fatalf("Known(%d) = %v, retired = %v", mt, Known(mt), retired)
		}
	}
	if Known(0) || Known(MsgHostReport+1) {
		t.Fatal("Known accepts undefined neighbors")
	}
}

// TestReadFrameNeverPanicsOnGarbage feeds random bytes to the frame
// reader (hostile or corrupted peers must produce errors, not panics or
// huge allocations).
func TestReadFrameNeverPanicsOnGarbage(t *testing.T) {
	f := func(data []byte) bool {
		r := bytes.NewReader(data)
		for {
			_, _, err := ReadFrame(r)
			if err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
