package core

import (
	"testing"

	"hawkeye/internal/collect"
	"hawkeye/internal/host"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

func TestBetterReport(t *testing.T) {
	const trig = 1000 * sim.Microsecond
	cases := []struct {
		name      string
		cand, cur sim.Time
		want      bool
	}{
		{"after beats farther-after", trig + 10, trig + 50, true},
		{"farther-after loses", trig + 50, trig + 10, false},
		{"exactly-at-trigger beats everything", trig, trig + 1, true},
		// Pre-trigger costs 2x: 40 µs before (cost 80) loses to 50 µs after.
		{"pre-trigger penalized", trig - 40*sim.Microsecond, trig + 50*sim.Microsecond, false},
		// ...but a slightly-stale report beats a long-stale post one.
		{"slightly-before beats long-after", trig - 10*sim.Microsecond, trig + 500*sim.Microsecond, true},
		{"equal cost keeps current", trig + 20, trig + 20, false},
	}
	for _, c := range cases {
		if got := betterReport(c.cand, c.cur, trig); got != c.want {
			t.Errorf("%s: betterReport(%v, %v, %v) = %v, want %v",
				c.name, c.cand, c.cur, trig, got, c.want)
		}
	}
}

// delivery fabricates a collected report from switch sw whose register
// sync started at t.
func delivery(sw topo.NodeID, started sim.Time, diags ...uint32) collect.Delivery {
	return collect.Delivery{
		Report:  &telemetry.Report{Switch: sw},
		DiagIDs: diags,
		Started: started,
		Arrived: started + 100*sim.Microsecond,
	}
}

func newCorrelateSystem() *System {
	sys := &System{
		Cfg:      DefaultConfig(),
		sessions: make(map[uint32]*Session),
	}
	return sys
}

func addSession(sys *System, id uint32, at sim.Time) *Session {
	s := &Session{
		Trigger: host.Trigger{DiagID: id, At: at},
		Reports: make(map[topo.NodeID]*telemetry.Report),
		Tagged:  make(map[topo.NodeID]bool),
	}
	sys.sessions[id] = s
	return s
}

func TestCorrelatePicksClosestReport(t *testing.T) {
	sys := newCorrelateSystem()
	const trig = 5 * sim.Millisecond
	s := addSession(sys, 1, trig)
	// Three collections from the same switch: stale, fresh, late.
	sys.deliveries = []collect.Delivery{
		delivery(7, trig-200*sim.Microsecond),
		delivery(7, trig+30*sim.Microsecond),
		delivery(7, trig+900*sim.Microsecond),
	}
	sys.correlate()
	if len(s.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 (same switch)", len(s.Reports))
	}
	// LastArrival identifies which delivery won: the +30 µs one.
	want := trig + 30*sim.Microsecond + 100*sim.Microsecond
	if s.LastArrival != want {
		t.Fatalf("correlate picked delivery arriving at %v, want %v", s.LastArrival, want)
	}
}

func TestCorrelateWindowBounds(t *testing.T) {
	sys := newCorrelateSystem()
	const trig = 5 * sim.Millisecond
	s := addSession(sys, 1, trig)
	lo := trig - collect.Interval
	hi := trig + correlationWindow
	sys.deliveries = []collect.Delivery{
		delivery(1, lo-sim.Microsecond), // too old: predates the dedup interval
		delivery(2, hi+sim.Microsecond), // too late: past the correlation window
		delivery(3, trig),               // in range
	}
	sys.correlate()
	if len(s.Reports) != 1 {
		t.Fatalf("reports = %d, want only the in-window switch", len(s.Reports))
	}
	if _, ok := s.Reports[3]; !ok {
		t.Fatalf("wrong switch correlated: %v", s.Reports)
	}
}

func TestCorrelateSharesReportsAcrossSessions(t *testing.T) {
	// §3.4: nearby diagnoses share one register sync per switch. A report
	// explicitly tagged for session 1 must still be usable by session 2
	// triggered within the dedup interval.
	sys := newCorrelateSystem()
	const trig = 5 * sim.Millisecond
	s1 := addSession(sys, 1, trig)
	s2 := addSession(sys, 2, trig+50*sim.Microsecond)
	sys.deliveries = []collect.Delivery{delivery(9, trig+10*sim.Microsecond, 1)}
	sys.correlate()
	if len(s1.Reports) != 1 || len(s2.Reports) != 1 {
		t.Fatalf("reports: s1=%d s2=%d, want shared", len(s1.Reports), len(s2.Reports))
	}
	if s1.Reports[9] != s2.Reports[9] {
		t.Fatal("sessions should share the same report object")
	}
}

func TestCorrelateMultipleSwitchesIndependent(t *testing.T) {
	sys := newCorrelateSystem()
	const trig = 5 * sim.Millisecond
	s := addSession(sys, 1, trig)
	sys.deliveries = []collect.Delivery{
		delivery(1, trig+20*sim.Microsecond),
		delivery(1, trig+400*sim.Microsecond), // worse for switch 1
		delivery(2, trig+300*sim.Microsecond), // only option for switch 2
	}
	sys.correlate()
	if len(s.Reports) != 2 {
		t.Fatalf("reports = %d, want one per switch", len(s.Reports))
	}
}
