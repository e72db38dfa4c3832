package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"hawkeye/internal/topo"
)

// FuzzReadFrame throws arbitrary bytes at the frame reader. The
// invariants: never panic, never hand back a payload beyond the
// per-type cap, and anything accepted must survive a write/read round
// trip unchanged.
func FuzzReadFrame(f *testing.F) {
	frame := func(t MsgType, payload []byte) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, t, payload); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add(frame(MsgHealth, nil))
	f.Add(frame(MsgDiagnose, []byte(`{"srcIp":167772161,"dstIp":167772162}`)))
	f.Add(frame(MsgError, []byte("session quarantined")))
	f.Add(frame(MsgType(200), []byte("unknown but well-framed")))
	// A header claiming a body far beyond MaxFrame.
	huge := []byte{0x80, 0, 0, 0, byte(MsgReport)}
	f.Add(huge)
	// A header claiming MaxFrame behind a tightly capped type.
	over := make([]byte, 5)
	binary.BigEndian.PutUint32(over, MaxFrame)
	over[4] = byte(MsgDiagnose)
	f.Add(over)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		mt, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > PayloadCap(mt) {
			t.Fatalf("type %d: %d-byte payload beyond its %d cap", mt, len(payload), PayloadCap(mt))
		}
		var b bytes.Buffer
		if err := WriteFrame(&b, mt, payload); err != nil {
			t.Fatalf("accepted frame refused on re-write: %v", err)
		}
		mt2, payload2, err := ReadFrame(&b)
		if err != nil || mt2 != mt || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the frame: type %d->%d err=%v", mt, mt2, err)
		}
	})
}

// FuzzReplicationRecord drives the shard-to-shard admission path a
// follower runs on every streamed record: frame split, structural
// bounds, replay floor. Invariants: never panic, never admit a replay
// at or below the floor, and anything admitted must survive an
// encode/re-check round trip — the follower writes the exact payload
// to its own log, so a record that passes once must pass again.
func FuzzReplicationRecord(f *testing.F) {
	rec := []byte(`{"Fabric":"prod","Seq":7,"At":1000,"Victim":"10.0.0.1:4791>10.0.0.2:4791","Type":3,` +
		`"Cause":1,"Node":4,"Port":2,"Culprits":["10.0.0.3:4791>10.0.0.2:4791"],"Pod":"pod1",` +
		`"Confidence":2,"Score":0.9,"StallNS":250000}`)
	f.Add(EncodeReplRecord(7, rec))
	f.Add(EncodeReplRecord(1, []byte(`{}`)))
	// Replay at the floor.
	f.Add(EncodeReplRecord(3, []byte(`{"Fabric":"a"}`)))
	// Embedded seq disagreeing with the frame seq (spliced payload).
	f.Add(EncodeReplRecord(9, []byte(`{"Seq":8}`)))
	// Structural bound violations.
	f.Add(EncodeReplRecord(10, []byte(`{"Score":7.5}`)))
	f.Add(EncodeReplRecord(11, []byte(`{"At":-1}`)))
	f.Add([]byte{0, 0, 0, 1}) // short header
	f.Add(EncodeReplRecord(12, []byte(`not json`)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		const floor = 3
		v := NewReplValidator(floor)
		seq, payload, err := v.CheckRecord(data)
		if err != nil {
			return
		}
		if seq <= floor {
			t.Fatalf("admitted seq %d at or below floor %d", seq, floor)
		}
		if v.High() != seq {
			t.Fatalf("high-water mark %d after admitting %d", v.High(), seq)
		}
		// Re-encoding what was admitted must be admissible again on a
		// fresh stream — this is exactly the follower's own log replay.
		again := NewReplValidator(floor)
		seq2, payload2, err := again.CheckRecord(EncodeReplRecord(seq, payload))
		if err != nil {
			t.Fatalf("admitted record refused on re-check: %v", err)
		}
		if seq2 != seq || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the record: seq %d->%d", seq, seq2)
		}
		// And once committed, the same record is a replay.
		v.Commit(seq)
		if _, _, err := v.CheckRecord(data); err == nil {
			t.Fatalf("seq %d admitted twice across Commit", seq)
		}
	})
}

// FuzzFenceFrame drives the routing/fencing verb parsers the fleet
// tier added for epoch-fenced failover: write requests, epoch
// announces, fence refusals, record-dump queries and cutovers. The
// first input byte selects the parser; the rest is its payload.
// Invariants: never panic, never accept a payload that violates the
// verb's documented bounds (a fence without a superseding epoch, an
// unknown cutover op, an unbounded name, an implausible epoch), and
// anything accepted must survive a marshal/re-parse round trip — the
// client re-encodes these structs verbatim on retry.
func FuzzFenceFrame(f *testing.F) {
	seed := func(verb byte, payload string) []byte {
		return append([]byte{verb}, payload...)
	}
	// Valid shapes for each verb.
	f.Add(seed(0, `{"fabric":"prod","originSeq":7,"epoch":3,"record":{"Fabric":"prod","At":1000,"OriginSeq":7,"Victim":"10.0.0.1:4791>10.0.0.2:4791"}}`))
	f.Add(seed(0, `{"fabric":"prod","originSeq":0,"record":{"Fabric":"prod","At":5}}`))
	f.Add(seed(1, `{"shard":"shard-0","epoch":4}`))
	f.Add(seed(2, `{"shard":"shard-0","epoch":2,"observed":5,"fenced":true}`))
	f.Add(seed(2, `{"shard":"shard-1","epoch":3,"moved":true,"fabric":"prod"}`))
	f.Add(seed(3, `{"fabric":"prod","limit":100}`))
	f.Add(seed(4, `{"fabric":"prod","op":"freeze"}`))
	f.Add(seed(4, `{"fabric":"prod","op":"release"}`))
	f.Add(seed(4, `{"fabric":"prod","op":"adopt"}`))
	// Violations the parsers must refuse.
	f.Add(seed(0, `{"fabric":"prod","originSeq":7,"record":{"Fabric":"other","OriginSeq":7}}`))
	f.Add(seed(0, `{"fabric":"prod","originSeq":7,"record":{"Fabric":"prod","OriginSeq":9}}`))
	f.Add(seed(0, `{"fabric":"prod","originSeq":1,"record":{"Fabric":"prod","Ctrl":"purge"}}`))
	f.Add(seed(0, `{"fabric":"prod","epoch":18446744073709551615,"record":{"Fabric":"prod"}}`))
	f.Add(seed(1, `{"shard":"shard-0","epoch":0}`))
	f.Add(seed(2, `{"shard":"shard-0","epoch":5,"observed":5,"fenced":true}`))
	f.Add(seed(3, `{"fabric":"prod","limit":-1}`))
	f.Add(seed(4, `{"fabric":"prod","op":"detach"}`))
	f.Add(seed(4, `{"op":"release"}`))
	f.Add(seed(0, `not json`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		verb, payload := data[0]%5, data[1:]
		reparse := func(v any, parse func([]byte) error) {
			out, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("verb %d: accepted value won't marshal: %v", verb, err)
			}
			if err := parse(out); err != nil {
				t.Fatalf("verb %d: accepted value refused on re-parse: %v", verb, err)
			}
		}
		switch verb {
		case 0:
			wr, err := ParseWriteRequest(payload)
			if err != nil {
				return
			}
			if wr.Fabric == "" || len(wr.Fabric) > maxFabricName {
				t.Fatalf("write request with fabric %q accepted", wr.Fabric)
			}
			if wr.Epoch > maxEpoch {
				t.Fatalf("write request with epoch %d accepted", wr.Epoch)
			}
			if len(wr.Record) == 0 {
				t.Fatal("write request without a record accepted")
			}
			reparse(&wr, func(b []byte) error { _, err := ParseWriteRequest(b); return err })
		case 1:
			ea, err := ParseEpochAnnounce(payload)
			if err != nil {
				return
			}
			if ea.Shard == "" || len(ea.Shard) > maxFabricName {
				t.Fatalf("epoch announce with shard %q accepted", ea.Shard)
			}
			if ea.Epoch == 0 || ea.Epoch > maxEpoch {
				t.Fatalf("epoch announce with epoch %d accepted", ea.Epoch)
			}
			reparse(&ea, func(b []byte) error { _, err := ParseEpochAnnounce(b); return err })
		case 2:
			fi, err := ParseFence(payload)
			if err != nil {
				return
			}
			if fi.Fenced && fi.Observed <= fi.Epoch {
				t.Fatalf("fence accepted without a superseding epoch: own %d, observed %d", fi.Epoch, fi.Observed)
			}
			if fi.Epoch > maxEpoch || fi.Observed > maxEpoch {
				t.Fatalf("fence with implausible epochs accepted: %d/%d", fi.Epoch, fi.Observed)
			}
			if len(fi.Shard) > maxFabricName || len(fi.Fabric) > maxFabricName {
				t.Fatalf("fence with unbounded names accepted: %d/%d bytes", len(fi.Shard), len(fi.Fabric))
			}
			reparse(&fi, func(b []byte) error { _, err := ParseFence(b); return err })
		case 3:
			rq, err := ParseRecordQuery(payload)
			if err != nil {
				return
			}
			if rq.Fabric == "" || len(rq.Fabric) > maxFabricName {
				t.Fatalf("record query with fabric %q accepted", rq.Fabric)
			}
			if rq.Limit < 0 {
				t.Fatalf("record query with negative limit %d accepted", rq.Limit)
			}
			reparse(&rq, func(b []byte) error { _, err := ParseRecordQuery(b); return err })
		case 4:
			cr, err := ParseCutover(payload)
			if err != nil {
				return
			}
			if cr.Op != CutoverFreeze && cr.Op != CutoverRelease && cr.Op != CutoverAdopt {
				t.Fatalf("cutover with op %q accepted", cr.Op)
			}
			if cr.Fabric == "" || len(cr.Fabric) > maxFabricName {
				t.Fatalf("cutover with fabric %q accepted", cr.Fabric)
			}
			reparse(&cr, func(b []byte) error { _, err := ParseCutover(b); return err })
		}
	})
}

// FuzzHello drives the whole handshake parse: ParseHello's structural
// checks, then — exactly as the server does — the embedded topology
// through ParseSpecJSON and into a Validator. No input may panic or
// allocate absurdly (the giant-port-index seed reproduces a pre-bounds
// OOM in topology reconstruction).
func FuzzHello(f *testing.F) {
	f.Add([]byte(`{"version":1,"epochNs":131072,"fabric":"prod"}`))
	f.Add([]byte(`{"version":1,"epochNs":131072,"topo":{"bandwidthBps":100e9,"delayNs":2000,` +
		`"nodes":[{"name":"h0","kind":"host"},{"name":"s0","kind":"switch"}],` +
		`"links":[{"a":0,"aPort":0,"b":1,"bPort":0}]}}`))
	// The hello that used to OOM: one link naming port 2^30.
	f.Add([]byte(`{"version":1,"epochNs":131072,"topo":{"bandwidthBps":100e9,"delayNs":2000,` +
		`"nodes":[{"name":"h0","kind":"host"},{"name":"s0","kind":"switch"}],` +
		`"links":[{"a":0,"aPort":0,"b":1,"bPort":1073741824}]}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"epochNs":-5}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHello(data)
		if err != nil {
			return
		}
		if len(h.Topo) == 0 {
			return // operator session: no topology to reconstruct
		}
		tp, err := topo.ParseSpecJSON(h.Topo)
		if err != nil {
			return
		}
		// A handshake that gets this far must yield a working validator.
		if v := NewValidator(tp); v == nil {
			t.Fatal("nil validator from accepted handshake")
		}
	})
}
