package analyzd

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hawkeye/internal/chaos"
	"hawkeye/internal/experiments"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

// fakeServer accepts one connection, answers the handshake, then hands
// the session to script. It stands in for a server whose mid-query
// behavior the client must survive.
func fakeServer(t *testing.T, script func(conn net.Conn)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		if err := wire.WriteFrame(conn, wire.MsgHelloOK, nil); err != nil {
			return
		}
		script(conn)
	}()
	return lis.Addr().String()
}

// frame is one scripted reply.
type frame struct {
	mt   wire.MsgType
	body string
}

// scriptedCall runs the client's one round-trip helper (a health
// probe) against a listener that answers the i-th request frame with
// replies[i], and returns what the caller of a public method would
// see, plus the client's recorded sleeps.
func scriptedCall(t *testing.T, replies ...[]frame) (wire.Health, []time.Duration, *Client, error) {
	t.Helper()
	addr := fakeServer(t, func(conn net.Conn) {
		for _, frames := range replies {
			if _, _, err := wire.ReadFrame(conn); err != nil {
				return
			}
			for _, f := range frames {
				_ = wire.WriteFrame(conn, f.mt, []byte(f.body))
			}
		}
	})
	// One attempt per scripted reply: a redial against the one-shot fake
	// server would just hang the test.
	rec := &sleepRecorder{}
	rc := retryCfgFor(rec)
	rc.MaxAttempts = len(replies)
	c, err := DialOperatorRetry(addr, rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var h wire.Health
	err = c.call("health", wire.MsgHealth, nil, wire.MsgHealthReply, &h)
	return h, rec.delays, c, err
}

// TestClientShutdownMidQuery: a MsgShutdown frame arriving where the
// reply should be is the server draining — the client must surface the
// typed error, not hang and not parse the goodbye as a health reply.
func TestClientShutdownMidQuery(t *testing.T) {
	_, _, _, err := scriptedCall(t, []frame{{wire.MsgShutdown, ""}})
	if !errors.Is(err, ErrServerDraining) {
		t.Fatalf("health during drain: %v, want ErrServerDraining", err)
	}
}

// TestClientErrorMidQuery: a MsgError reply must come back as a clean
// error naming the server's complaint.
func TestClientErrorMidQuery(t *testing.T) {
	_, _, _, err := scriptedCall(t, []frame{{wire.MsgError, "deliberate refusal"}})
	if err == nil || err.Error() != "analyzd: server error: deliberate refusal" {
		t.Fatalf("error reply mangled: %v", err)
	}
}

// TestClientSkipsUnknownFrameBeforeReply: a frame type from a newer
// server interleaved before the reply must be skipped, with the real
// reply still attributed to the request.
func TestClientSkipsUnknownFrameBeforeReply(t *testing.T) {
	h, _, _, err := scriptedCall(t, []frame{
		{wire.MsgType(200), "from the future"},
		{wire.MsgHealthReply, `{"state":"serving"}`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "serving" {
		t.Fatalf("reply misattributed: %+v", h)
	}
}

// TestClientCall covers the rest of the round-trip helper's reply
// classification; the drain, server-error and unknown-frame cases are
// the three tests above, over the same scripted listener.
func TestClientCall(t *testing.T) {
	serving := frame{wire.MsgHealthReply, `{"state":"serving"}`}
	for _, tc := range []struct {
		name    string
		replies [][]frame
		check   func(t *testing.T, h wire.Health, slept []time.Duration, c *Client, err error)
	}{
		{"wanted reply", [][]frame{{serving}},
			func(t *testing.T, h wire.Health, _ []time.Duration, _ *Client, err error) {
				if err != nil || h.State != "serving" {
					t.Fatalf("h = %+v, err = %v", h, err)
				}
			}},
		{"fence refusal", [][]frame{{{wire.MsgFence, `{"shard":"s0","epoch":1,"observed":2,"fenced":true}`}}},
			func(t *testing.T, _ wire.Health, _ []time.Duration, _ *Client, err error) {
				var fe *FenceError
				if !errors.Is(err, ErrFenced) || !errors.As(err, &fe) || fe.Info.Shard != "s0" || fe.Info.Observed != 2 {
					t.Fatalf("err = %v, want a *FenceError for s0", err)
				}
			}},
		{"wrong reply type", [][]frame{{{wire.MsgSubscribeOK, ""}}},
			func(t *testing.T, _ wire.Health, _ []time.Duration, _ *Client, err error) {
				if err == nil || !strings.Contains(err.Error(), "unexpected reply type") {
					t.Fatalf("err = %v, want unexpected reply type", err)
				}
			}},
		{"throttle then success", [][]frame{{{wire.MsgThrottle, `{"tier":"query","retryAfterMs":7}`}}, {serving}},
			func(t *testing.T, h wire.Health, slept []time.Duration, c *Client, err error) {
				if err != nil || h.State != "serving" {
					t.Fatalf("h = %+v, err = %v", h, err)
				}
				// The hint is honored, with no backoff and no redial: the
				// session was healthy all along.
				if len(slept) != 1 || slept[0] != 7*time.Millisecond || c.Redials != 0 {
					t.Fatalf("slept %v, redials %d; want one 7ms sleep, no redial", slept, c.Redials)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, slept, c, err := scriptedCall(t, tc.replies...)
			tc.check(t, h, slept, c, err)
		})
	}
}

// TestReadTimeoutDropsStalledSession: with a read deadline configured, a
// peer that never sends its next frame is cut loose instead of pinning a
// handler goroutine.
func TestReadTimeoutDropsStalledSession(t *testing.T) {
	s, err := ListenOpts("127.0.0.1:0", Options{ReadTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn := rawSession(t, s.Addr(), smallTopo(t))
	// Send nothing. The server must hang up on its own.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, _, err := wire.ReadFrame(conn); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("server kept the stalled session open")
			}
			return // closed by the server: the deadline fired
		}
	}
}

// TestCorruptedStreamDoesNotKillServer drives real telemetry through a
// bit-flipping proxy. Wherever the flips land — length prefixes, type
// bytes, payloads — the affected session may die, but the server must
// absorb it and keep answering clean sessions.
func TestCorruptedStreamDoesNotKillServer(t *testing.T) {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	epochNS := int64(tr.Sys.Cfg.Telemetry.EpochSize())

	for seed := uint64(1); seed <= 4; seed++ {
		p, err := chaos.NewFlakyProxy("127.0.0.1:0", s.Addr(),
			chaos.FlakyConfig{CorruptEveryNth: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		// Errors anywhere here are expected — a flipped bit in the hello
		// or a length prefix legitimately kills that session. What is
		// never acceptable is the server going down with it.
		if c, err := Dial(p.Addr(), tr.Cl.Topo, epochNS); err == nil {
			for _, rep := range tr.View.Traced {
				if err := c.SendReport(rep); err != nil {
					break
				}
			}
			c.Close()
		}
		p.Close()
	}

	c, err := Dial(s.Addr(), tr.Cl.Topo, epochNS)
	if err != nil {
		t.Fatalf("clean dial after corrupted sessions: %v", err)
	}
	defer c.Close()
	h, err := c.Health()
	if err != nil || h.State != "serving" {
		t.Fatalf("server unhealthy after corrupted streams: %+v err=%v", h, err)
	}
}

// TestRejectedReportDegradesDiagnosis wires the accounting end to end:
// after honest telemetry plus one garbage report, the verdict still
// stands but names the rejection and cannot be high-confidence.
func TestRejectedReportDegradesDiagnosis(t *testing.T) {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t)
	c, err := Dial(s.Addr(), tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, rep := range tr.View.Traced {
		if err := c.SendReport(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.WriteFrame(c.conn, wire.MsgReport, garbageReport(t)); err != nil {
		t.Fatal(err)
	}
	d, err := c.DiagnoseAt(tr.Score.Result.Trigger.Victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != tr.Score.Result.Diagnosis.Type.String() {
		t.Fatalf("verdict changed under rejection: %s", d.Type)
	}
	if d.Confidence == "high" {
		t.Fatalf("rejected report left confidence high (%.2f)", d.Score)
	}
	found := false
	for _, m := range d.Missing {
		if strings.Contains(m, "rejected") {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejection invisible in diagnosis: %v", d.Missing)
	}
	if st := s.Stats(); st.RejectedReports != 1 {
		t.Fatalf("RejectedReports = %d, want 1", st.RejectedReports)
	}
}
