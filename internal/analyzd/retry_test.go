package analyzd

import (
	"sync"
	"testing"
	"time"

	"hawkeye/internal/chaos"
	"hawkeye/internal/packet"
	"hawkeye/internal/sim"
)

// sleepRecorder collects the backoff delays instead of waiting them out.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (r *sleepRecorder) sleep(d time.Duration) {
	r.mu.Lock()
	r.delays = append(r.delays, d)
	r.mu.Unlock()
}

func (r *sleepRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.delays)
}

func retryCfgFor(rec *sleepRecorder) RetryConfig {
	rc := DefaultRetryConfig()
	rc.Sleep = rec.sleep
	return rc
}

// TestDialRetriesThroughResets: the analyzer's network resets the first
// two connections; the client must back off and land the third.
func TestDialRetriesThroughResets(t *testing.T) {
	s := newServer(t)
	p, err := chaos.NewFlakyProxy("127.0.0.1:0", s.Addr(), chaos.FlakyConfig{ResetFirst: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rec := &sleepRecorder{}
	c, err := DialFabricRetry(p.Addr(), "", smallTopo(t), 131072, retryCfgFor(rec))
	if err != nil {
		t.Fatalf("dial through flaky proxy: %v", err)
	}
	defer c.Close()
	if got := rec.count(); got != 2 {
		t.Errorf("backoffs = %d, want 2", got)
	}
	// Backoffs must grow exponentially (jitter is only ±20%).
	rec.mu.Lock()
	if len(rec.delays) == 2 && rec.delays[1] < rec.delays[0] {
		t.Errorf("backoff shrank: %v", rec.delays)
	}
	rec.mu.Unlock()
	// The surviving session must actually work.
	if _, err := c.DiagnoseAt(packet.FiveTuple{SrcIP: 1, DstIP: 2}, 0); err != nil {
		t.Fatalf("diagnose on retried session: %v", err)
	}
}

// TestDiagnoseSurvivesMidSessionReset: the connection dies after the
// handshake; the next request must redial, re-handshake and complete.
func TestDiagnoseSurvivesMidSessionReset(t *testing.T) {
	s := newServer(t)
	p, err := chaos.NewFlakyProxy("127.0.0.1:0", s.Addr(), chaos.FlakyConfig{ResetEveryNth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rec := &sleepRecorder{}
	// Connection 1 survives the handshake. Kill it out from under the
	// client, so the next request hits a dead socket; the retry dials
	// connection 2, which the proxy resets, then connection 3 works.
	c, err := DialFabricRetry(p.Addr(), "", smallTopo(t), 131072, retryCfgFor(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.conn.Close()

	d, err := c.DiagnoseAt(packet.FiveTuple{SrcIP: 1, DstIP: 2}, 0)
	if err != nil {
		t.Fatalf("diagnose after reset: %v", err)
	}
	if d.Confidence == "" {
		t.Error("diagnosis reply missing confidence grade")
	}
	if c.Redials == 0 {
		t.Error("client never recorded a redial")
	}
}

// TestRetryGivesUpAfterMaxAttempts: with every connection reset, the
// client must fail after its budget, not hang forever.
func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	s := newServer(t)
	p, err := chaos.NewFlakyProxy("127.0.0.1:0", s.Addr(), chaos.FlakyConfig{ResetFirst: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rec := &sleepRecorder{}
	rc := retryCfgFor(rec)
	rc.MaxAttempts = 3
	if _, err := DialFabricRetry(p.Addr(), "", smallTopo(t), 131072, rc); err == nil {
		t.Fatal("dial succeeded against always-reset proxy")
	}
	if got := rec.count(); got != 2 {
		t.Errorf("backoffs = %d, want 2 (3 attempts)", got)
	}
}

// TestHandshakeRejectionIsNotRetried: a server that rejects the hello is
// a permanent failure — retrying would hammer it for nothing.
func TestHandshakeRejectionIsNotRetried(t *testing.T) {
	s := newServer(t)
	rec := &sleepRecorder{}
	rc := retryCfgFor(rec)
	c := &Client{addr: s.Addr(), hello: helloFor(t, smallTopo(t)), retry: rc}
	c.hello.Version = 999
	if _, err := dialHello(s.Addr(), c.hello, rc); err == nil {
		t.Fatal("bad version accepted")
	}
	if got := rec.count(); got != 0 {
		t.Errorf("rejected handshake was retried %d times", got)
	}
}

// TestRetryDelayBoundsAndDeterminism pins the shared backoff schedule:
// capped exponential without jitter, within ±JitterFrac with it, and
// the same sequence for the same seed.
func TestRetryDelayBoundsAndDeterminism(t *testing.T) {
	plain := RetryConfig{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	} {
		if got := plain.Delay(nil, attempt); got != want {
			t.Fatalf("attempt %d: %v, want %v", attempt, got, want)
		}
	}
	jittered := plain
	jittered.JitterFrac = 0.2
	a, b := sim.NewRand(5), sim.NewRand(5)
	for attempt := 0; attempt < 6; attempt++ {
		da, db := jittered.Delay(a, attempt), jittered.Delay(b, attempt)
		if da != db {
			t.Fatalf("jitter not deterministic at attempt %d", attempt)
		}
		nominal := plain.Delay(nil, attempt)
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if da < lo || da > hi {
			t.Fatalf("attempt %d: %v outside [%v, %v]", attempt, da, lo, hi)
		}
	}
}
