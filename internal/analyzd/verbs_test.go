package analyzd

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

// clientVerbs is the protocol's client→server side after the handshake,
// written out apart from the registry it checks.
var clientVerbs = []wire.MsgType{
	wire.MsgReport, wire.MsgDiagnose, wire.MsgIncidents, wire.MsgQueryIncidents,
	wire.MsgSubscribe, wire.MsgHealth, wire.MsgQueryRollups, wire.MsgSubscribeRollups,
	wire.MsgReplicate, wire.MsgReplAck, wire.MsgShardInfo, wire.MsgWriteRecord,
	wire.MsgEpoch, wire.MsgQueryRecords, wire.MsgCutover, wire.MsgHostReport,
}

// rawSession handshakes a raw connection: an operator session when tp
// is nil, else a fabric session over tp.
func rawSession(t *testing.T, addr string, tp *topo.Topology) net.Conn {
	t.Helper()
	conn := rawDial(t, addr)
	h := wire.Hello{Version: wire.ProtocolVersion}
	if tp != nil {
		h = helloFor(t, tp)
	}
	if err := wire.WriteJSON(conn, wire.MsgHello, h); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(conn); err != nil || mt != wire.MsgHelloOK {
		t.Fatalf("handshake: type=%d err=%v", mt, err)
	}
	return conn
}

// exchange sends one frame and returns the next frame the server sends.
func exchange(t *testing.T, conn net.Conn, mt wire.MsgType, payload []byte) (wire.MsgType, string) {
	t.Helper()
	if err := wire.WriteFrame(conn, mt, payload); err != nil {
		t.Fatal(err)
	}
	rt, rp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("type %d: no answer: %v", mt, err)
	}
	return rt, string(rp)
}

// expectClosed asserts the server ended the session.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	if mt, _, err := wire.ReadFrame(conn); err == nil {
		t.Fatalf("session still open: got frame type %d", mt)
	}
}

// TestVerbTable pins the verb registry to the protocol and each verb's
// gates and bad-payload policy to the texts clients see.
func TestVerbTable(t *testing.T) {
	sent := make(map[wire.MsgType]bool)
	for _, mt := range clientVerbs {
		sent[mt] = true
	}
	for i := 0; i < 256; i++ {
		mt := wire.MsgType(i)
		if registered := i < len(verbs) && verbs[i].handle != nil; registered != sent[mt] {
			t.Errorf("type %d: registered = %v, client sends it after the handshake = %v", i, registered, sent[mt])
		}
	}

	// Every other type — the server→client ones, a second hello, a type
	// from a newer protocol — is refused and ends the session.
	s := newServer(t)
	for i := 1; i < 256; i++ {
		mt := wire.MsgType(i)
		if sent[mt] || (!wire.Known(mt) && i != 200) {
			continue
		}
		conn := rawSession(t, s.Addr(), nil)
		rt, text := exchange(t, conn, mt, nil)
		if want := fmt.Sprintf("unexpected message type %d", i); rt != wire.MsgError || text != want {
			t.Errorf("type %d: reply %d %q, want %q", i, rt, text, want)
		}
		expectClosed(t, conn)
	}

	tp := smallTopo(t)
	var sw, hostID topo.NodeID
	for _, n := range tp.Nodes {
		if n.Kind == topo.KindSwitch {
			sw = n.ID
		} else {
			hostID = n.ID
		}
	}
	victim := packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}
	diagnose := func(path ...topo.NodeID) string { return string(wire.EncodeDiagnoseRequest(victim, 1, path...)) }
	for _, tc := range []struct {
		name    string
		fabric  bool
		mt      wire.MsgType
		payload string
		// reply is the answer's type; 0 means none: the session must
		// stay open and answer a health probe next.
		reply wire.MsgType
		// text is a MsgError's text; a "bad <payload>: " row names only
		// the prefix the decode error follows.
		text string
		// bad rows carry an undecodable payload, counted as a decode error.
		bad bool
	}{
		{name: "report on operator", mt: wire.MsgReport, reply: wire.MsgError, text: "operator session cannot push reports"},
		{name: "host report on operator", mt: wire.MsgHostReport, reply: wire.MsgError, text: "operator session cannot push host reports"},
		{name: "diagnose on operator", mt: wire.MsgDiagnose, reply: wire.MsgError, text: "operator session cannot diagnose"},

		{name: "health on operator", mt: wire.MsgHealth, reply: wire.MsgHealthReply},
		{name: "health on fabric", fabric: true, mt: wire.MsgHealth, reply: wire.MsgHealthReply},
		{name: "shard info on operator", mt: wire.MsgShardInfo, reply: wire.MsgShardInfoReply},
		{name: "shard info on fabric", fabric: true, mt: wire.MsgShardInfo, reply: wire.MsgShardInfoReply},
		{name: "epoch probe on operator", mt: wire.MsgEpoch, payload: `{"shard":"s0","epoch":1}`, reply: wire.MsgFence},
		{name: "epoch probe on fabric", fabric: true, mt: wire.MsgEpoch, payload: `{"shard":"s0","epoch":1}`, reply: wire.MsgFence},
		{name: "record query on operator", mt: wire.MsgQueryRecords, payload: `{"fabric":"f"}`, reply: wire.MsgRecordList},
		{name: "record query on fabric", fabric: true, mt: wire.MsgQueryRecords, payload: `{"fabric":"f"}`, reply: wire.MsgRecordList},

		// Push verbs have no reply slot: a bad payload strikes silently.
		{name: "bad report", fabric: true, mt: wire.MsgReport, payload: "{", bad: true},
		{name: "bad host report", fabric: true, mt: wire.MsgHostReport, payload: "{", bad: true},
		{name: "bad repl ack", mt: wire.MsgReplAck, payload: "{", bad: true},
		// Request verbs are answered, and the session ends.
		{name: "bad diagnose", fabric: true, mt: wire.MsgDiagnose, payload: "{", reply: wire.MsgError, text: "bad diagnose request: ", bad: true},
		{name: "diagnose with empty path", fabric: true, mt: wire.MsgDiagnose, payload: diagnose() + "\x00", reply: wire.MsgError, text: "bad diagnose request: ", bad: true},
		{name: "diagnose with path through a host", fabric: true, mt: wire.MsgDiagnose, payload: diagnose(sw, hostID), reply: wire.MsgError, text: "bad diagnose request: ", bad: true},
		{name: "diagnose with repeated switch", fabric: true, mt: wire.MsgDiagnose, payload: diagnose(sw, sw), reply: wire.MsgError, text: "bad diagnose request: ", bad: true},
		{name: "diagnose with path", fabric: true, mt: wire.MsgDiagnose, payload: diagnose(sw), reply: wire.MsgDiagnosis},
		{name: "bad incident query", mt: wire.MsgQueryIncidents, payload: "{", reply: wire.MsgError, text: "bad incident query: ", bad: true},
		{name: "bad subscribe", mt: wire.MsgSubscribe, payload: "{", reply: wire.MsgError, text: "bad subscribe request: ", bad: true},
		{name: "bad rollup query", mt: wire.MsgQueryRollups, payload: "{", reply: wire.MsgError, text: "bad rollup query: ", bad: true},
		{name: "bad rollup subscribe", mt: wire.MsgSubscribeRollups, payload: "{", reply: wire.MsgError, text: "bad rollup subscribe request: ", bad: true},
		{name: "bad replicate", mt: wire.MsgReplicate, payload: "{", reply: wire.MsgError, text: "bad replicate request: ", bad: true},
		{name: "bad write", mt: wire.MsgWriteRecord, payload: "{", reply: wire.MsgError, text: "bad write request: ", bad: true},
		{name: "bad epoch announce", mt: wire.MsgEpoch, payload: `{"shard":"","epoch":1}`, reply: wire.MsgError, text: "bad epoch announce: ", bad: true},
		{name: "bad record query", mt: wire.MsgQueryRecords, payload: "{", reply: wire.MsgError, text: "bad record query: ", bad: true},
		{name: "bad cutover", mt: wire.MsgCutover, payload: "{", reply: wire.MsgError, text: "bad cutover request: ", bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			var conn net.Conn
			if tc.fabric {
				conn = rawSession(t, s.Addr(), tp)
			} else {
				conn = rawSession(t, s.Addr(), nil)
			}
			if err := wire.WriteFrame(conn, tc.mt, []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			if tc.reply == 0 {
				if rt, _ := exchange(t, conn, wire.MsgHealth, nil); rt != wire.MsgHealthReply {
					t.Fatalf("after a push: reply type %d, want a health reply", rt)
				}
			} else {
				rt, rp, err := wire.ReadFrame(conn)
				if err != nil || rt != tc.reply {
					t.Fatalf("reply type %d (%q), err %v; want %d", rt, rp, err, tc.reply)
				}
				text := string(rp)
				if rt == wire.MsgError {
					if text != tc.text && !(strings.HasSuffix(tc.text, ": ") && strings.HasPrefix(text, tc.text)) {
						t.Fatalf("error text %q, want %q", text, tc.text)
					}
					expectClosed(t, conn)
				}
			}
			want := uint64(0)
			if tc.bad {
				want = 1
			}
			if n := s.Stats().DecodeErrors; n != want {
				t.Fatalf("DecodeErrors = %d, want %d", n, want)
			}
		})
	}
}
