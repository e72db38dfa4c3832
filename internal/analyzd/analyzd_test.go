package analyzd

import (
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hawkeye/internal/chaos"
	"hawkeye/internal/core"
	"hawkeye/internal/experiments"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := ListenOpts("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// differentialRows are the trials TestEndToEndDiagnosis replays: every
// scenario at seed 1, a trial that loses half its collections (so a
// victim-path switch goes silent), and one with the host agents off.
func differentialRows() []experiments.TrialConfig {
	var rows []experiments.TrialConfig
	for _, name := range workload.AllScenarios() {
		rows = append(rows, experiments.DefaultTrialConfig(name, 1))
	}
	loss := experiments.DefaultTrialConfig(workload.NameIncast, 1)
	loss.Chaos = &chaos.Schedule{CollectDrop: 0.5}
	noAgents := experiments.DefaultTrialConfig(workload.NameStorm, 1)
	noAgents.DisableHostAgents = true
	return append(rows, loss, noAgents)
}

// TestEndToEndDiagnosis is the differential test of the two transports:
// each row pushes the scored session's switch and host reports through a
// fresh loopback session, complains with the declared victim path, and
// must get back exactly the verdict the reproduction reached in-process.
func TestEndToEndDiagnosis(t *testing.T) {
	for _, cfg := range differentialRows() {
		name := cfg.Scenario
		switch {
		case cfg.Chaos != nil:
			name = "collect-loss-" + name
		case cfg.DisableHostAgents:
			name = "no-host-agents-" + name
		}
		t.Run(name, func(t *testing.T) {
			tr, err := experiments.RunTrial(cfg)
			if err != nil {
				t.Fatal(err)
			}
			local := tr.Score.Result
			if local == nil {
				t.Fatal("trial produced no diagnosis")
			}
			sess := tr.Sys.Sessions()[local.Trigger.DiagID]

			s := newServer(t)
			c, err := Dial(s.Addr(), tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, rep := range sess.Reports {
				if err := c.SendReport(rep); err != nil {
					t.Fatal(err)
				}
			}
			for _, hr := range sess.HostReports {
				if err := c.SendHostReport(hr); err != nil {
					t.Fatal(err)
				}
			}
			victim := local.Trigger.Victim
			remote, err := c.DiagnoseAt(victim, int64(local.Trigger.At), core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, victim)...)
			if err != nil {
				t.Fatal(err)
			}

			d := local.Diagnosis
			cause := d.PrimaryCause()
			want := wire.Diagnosis{
				Type:        d.Type.String(),
				CauseKind:   cause.Kind.String(),
				InitialNode: int(cause.Port.Node),
				InitialPort: cause.Port.Port,
				Rendered:    d.String() + local.Graph.String(),
				Switches:    len(local.Switches),
				Confidence:  d.Confidence.String(),
				Score:       d.ConfidenceScore,
				Missing:     d.Missing,
			}
			for _, f := range cause.Flows {
				want.Culprits = append(want.Culprits, f.String())
			}
			if !reflect.DeepEqual(*remote, want) {
				if remote.Rendered != want.Rendered {
					t.Fatalf("served text differs from the in-process render:\n--- remote\n%s--- local\n%s", remote.Rendered, want.Rendered)
				}
				t.Fatalf("service verdict differs from the reproduction's:\n  remote: %+v\n  local:  %+v", *remote, want)
			}
			if !strings.Contains(remote.Rendered, remote.Type) {
				t.Fatal("rendered report missing the verdict")
			}
			// A clean fabric's telemetry passes admission untouched.
			st := s.Stats()
			if st.Reports != len(sess.Reports) || st.HostReports != len(sess.HostReports) || st.Diagnoses != 1 {
				t.Fatalf("stats = %+v", st)
			}
			if st.RejectedReports+st.RejectedHostReports+st.ClampedValues != 0 {
				t.Fatalf("admission rejected %d+%d reports and clamped %d values", st.RejectedReports, st.RejectedHostReports, st.ClampedValues)
			}
		})
	}
}

// TestChangedReportSetRebuilds: a session keeps the graph of its last
// report set, so a push between two complaints must rebuild it. After a
// replacement report and a rejected one, the second verdict is exactly
// what a fresh session makes of the same evidence.
func TestChangedReportSetRebuilds(t *testing.T) {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameStorm, 1))
	if err != nil {
		t.Fatal(err)
	}
	local := tr.Score.Result
	if local == nil {
		t.Fatal("trial produced no diagnosis")
	}
	sess := tr.Sys.Sessions()[local.Trigger.DiagID]
	victim, at := local.Trigger.Victim, int64(local.Trigger.At)
	path := core.VictimPath(tr.Cl.Routing, tr.Cl.Topo, victim)

	// The replacement keeps the newer half of the epochs of the report
	// with the most of them: same switch, different graph.
	var old *telemetry.Report
	for _, rep := range sess.Reports {
		if old == nil || len(rep.Epochs) > len(old.Epochs) || len(rep.Epochs) == len(old.Epochs) && rep.Switch < old.Switch {
			old = rep
		}
	}
	if len(old.Epochs) < 2 {
		t.Fatalf("largest report has %d epochs, want 2 or more", len(old.Epochs))
	}
	repl := *old
	repl.Epochs = old.Epochs[:len(old.Epochs)/2]
	rejected := garbageReport(t)

	s := newServer(t)
	dial := func() *Client {
		c, err := Dial(s.Addr(), tr.Cl.Topo, int64(tr.Sys.Cfg.Telemetry.EpochSize()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	push := func(c *Client, reps ...*telemetry.Report) {
		for _, rep := range reps {
			if err := c.SendReport(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	pushHosts := func(c *Client) {
		for _, hr := range sess.HostReports {
			if err := c.SendHostReport(hr); err != nil {
				t.Fatal(err)
			}
		}
	}
	diagnose := func(c *Client) wire.Diagnosis {
		d, err := c.DiagnoseAt(victim, at, path...)
		if err != nil {
			t.Fatal(err)
		}
		return *d
	}
	var setA, setB []*telemetry.Report
	for _, rep := range sess.Reports {
		setA = append(setA, rep)
		if rep != old {
			setB = append(setB, rep)
		}
	}
	setB = append(setB, &repl)

	c := dial()
	push(c, setA...)
	pushHosts(c)
	first := diagnose(c)
	push(c, &repl)
	if err := wire.WriteFrame(c.conn, wire.MsgReport, rejected); err != nil {
		t.Fatal(err)
	}
	second := diagnose(c)

	fresh := dial()
	push(fresh, setB...)
	pushHosts(fresh)
	if err := wire.WriteFrame(fresh.conn, wire.MsgReport, rejected); err != nil {
		t.Fatal(err)
	}
	want := diagnose(fresh)

	if !reflect.DeepEqual(second, want) {
		t.Fatalf("verdict after the push differs from a fresh session's:\n  got:  %+v\n  want: %+v", second, want)
	}
	if second.Rendered == first.Rendered {
		t.Fatal("replacing a report left the rendered verdict unchanged")
	}
}

func helloFor(t *testing.T, tp *topo.Topology) wire.Hello {
	t.Helper()
	spec, err := json.Marshal(tp.ToSpec())
	if err != nil {
		t.Fatal(err)
	}
	return wire.Hello{Version: wire.ProtocolVersion, Topo: spec, EpochNS: 131072}
}

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func smallTopo(t *testing.T) *topo.Topology {
	t.Helper()
	d, err := topo.NewChain(2, 1, topo.DefaultBandwidth, topo.DefaultDelay)
	if err != nil {
		t.Fatal(err)
	}
	return d.Topology
}

func TestHandshakeRejectsBadVersion(t *testing.T) {
	s := newServer(t)
	conn := rawDial(t, s.Addr())
	h := helloFor(t, smallTopo(t))
	h.Version = 99
	if err := wire.WriteJSON(conn, wire.MsgHello, h); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgError || !strings.Contains(string(payload), "version") {
		t.Fatalf("reply %d %q", mt, payload)
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	s := newServer(t)
	conn := rawDial(t, s.Addr())
	if err := wire.WriteFrame(conn, wire.MsgReport, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	mt, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgError {
		t.Fatalf("reply type %d, want error", mt)
	}
}

func TestHandshakeRejectsBadTopology(t *testing.T) {
	s := newServer(t)
	conn := rawDial(t, s.Addr())
	h := helloFor(t, smallTopo(t))
	h.Topo = json.RawMessage(`{"bandwidthBps":0}`)
	if err := wire.WriteJSON(conn, wire.MsgHello, h); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgError || !strings.Contains(string(payload), "topology") {
		t.Fatalf("reply %d %q", mt, payload)
	}
}

func TestReportForUnknownSwitchRejected(t *testing.T) {
	s := newServer(t)
	tp := smallTopo(t)
	c, err := Dial(s.Addr(), tp, 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Reports claiming a switch ID beyond the handshaken topology are
	// rejected silently — a push has no reply slot — and charged against
	// the strike budget. The session survives within the budget...
	garbage := garbageReport(t)
	for i := 0; i < DefaultMaxStrikes-1; i++ {
		if err := wire.WriteFrame(c.conn, wire.MsgReport, garbage); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Health(); err != nil {
		t.Fatalf("session dead before budget exhausted: %v", err)
	}
	if st := s.Stats(); st.RejectedReports != DefaultMaxStrikes-1 || st.QuarantinedSessions != 0 {
		t.Fatalf("rejected=%d quarantined=%d before budget", st.RejectedReports, st.QuarantinedSessions)
	}
	// ...and the strike that exhausts it draws the quarantine MsgError
	// and a dropped connection.
	if err := wire.WriteFrame(c.conn, wire.MsgReport, garbage); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := wire.ReadFrame(c.conn)
	if err != nil {
		t.Fatal(err)
	}
	if mt != wire.MsgError || !strings.Contains(string(payload), "quarantined") {
		t.Fatalf("reply type %d payload %q, want quarantine error", mt, payload)
	}
	if _, _, err := wire.ReadFrame(c.conn); err == nil {
		t.Fatal("quarantined session still open")
	}
	if st := s.Stats(); st.QuarantinedSessions != 1 {
		t.Fatalf("QuarantinedSessions = %d, want 1", st.QuarantinedSessions)
	}
}

// garbageReport builds a syntactically valid report for switch 200.
func garbageReport(t *testing.T) []byte {
	t.Helper()
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range tr.View.Traced {
		cp := *rep
		cp.Switch = 200
		data, err := cp.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	t.Fatal("no traced reports")
	return nil
}

func TestConcurrentSessions(t *testing.T) {
	s := newServer(t)
	tp := smallTopo(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr(), tp, 131072)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if _, err := c.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := s.Stats(); st.Sessions != n || st.Diagnoses != n {
		t.Fatalf("stats = %+v, want %d sessions/diagnoses", s.Stats(), n)
	}
}

func TestCloseUnblocksSessions(t *testing.T) {
	s := newServer(t)
	c, err := Dial(s.Addr(), smallTopo(t), 131072)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The session socket is closed server-side; the next request fails
	// rather than hanging.
	if _, err := c.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err == nil {
		t.Fatal("diagnose succeeded on a closed server")
	}
}

// TestIncidentsOverTheWire drives several diagnoses through one session
// and asks the server's fleet store for the incidents they form.
func TestIncidentsOverTheWire(t *testing.T) {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Score.Result == nil {
		t.Fatal("no scored diagnosis")
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
	// Replay the trial's ground-truth-victim complaints against the same
	// telemetry: same anchor, close together -> one incident.
	n := 0
	for _, r := range tr.Results {
		if !tr.GT.Victims[r.Trigger.Victim] || r.Trigger.At < tr.GT.AnomalyAt {
			continue
		}
		if r.Trigger.At > tr.GT.AnomalyAt+time2ms {
			break
		}
		if _, err := c.DiagnoseAt(r.Trigger.Victim, int64(r.Trigger.At)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n < 2 {
		t.Fatalf("only %d live-window complaints; nothing to group", n)
	}
	incs, err := c.QueryIncidents(wire.IncidentQuery{Node: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1 (same anchor, same window)", len(incs))
	}
	if incs[0].Complaints != n {
		t.Fatalf("incident has %d complaints, sent %d", incs[0].Complaints, n)
	}
	if incs[0].Type != tr.Score.Result.Diagnosis.Type.String() {
		t.Fatalf("incident type %q", incs[0].Type)
	}
}

const time2ms = 2_000_000 // 2 ms in sim.Time ns

// TestFleetStoreEndToEnd drives two concurrent fabric sessions through
// one analyzer into the shared fleet store, tails it over a live
// subscription, and queries the clustered incidents by type and time
// range over the wire.
func TestFleetStoreEndToEnd(t *testing.T) {
	tr, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameIncast, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Score.Result == nil {
		t.Fatal("trial produced no diagnosis")
	}
	victim := tr.Score.Result.Trigger.Victim
	at := int64(tr.Score.Result.Trigger.At)
	epoch := int64(tr.Sys.Cfg.Telemetry.EpochSize())
	s := newServer(t)

	// Operator 1 subscribes before any complaint arrives.
	tail, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if err := tail.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		t.Fatal(err)
	}

	// Two fabrics report the same anomaly concurrently (same simulated
	// telemetry standing in for two pods seeing one spine-level event).
	fabrics := []string{"pod-a", "pod-b"}
	var wg sync.WaitGroup
	errs := make(chan error, len(fabrics))
	for _, fabric := range fabrics {
		fabric := fabric
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialFabric(s.Addr(), fabric, tr.Cl.Topo, epoch)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for _, rep := range tr.View.Traced {
				if err := c.SendReport(rep); err != nil {
					errs <- err
					return
				}
			}
			if _, err := c.DiagnoseAt(victim, at); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The live tail saw the incident open (and, fabrics racing, grow).
	ev, err := tail.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "opened" {
		t.Fatalf("first event kind %q, want opened", ev.Kind)
	}
	wantType := tr.Score.Result.Diagnosis.Type.String()
	if ev.Incident.Type != wantType {
		t.Fatalf("event type %q, want %q", ev.Incident.Type, wantType)
	}
	ev2, err := tail.NextEvent()
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Kind != "grew" && ev2.Kind != "opened" {
		t.Fatalf("second event kind %q", ev2.Kind)
	}

	// Operator 2 queries: by type, then by a time range excluding it.
	q, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	incs, err := q.QueryIncidents(wire.IncidentQuery{Type: wantType, Node: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("type query returned %d incidents, want 1 (both fabrics merged)", len(incs))
	}
	inc := incs[0]
	if inc.Complaints != 2 || len(inc.Fabrics) != 2 {
		t.Fatalf("incident complaints=%d fabrics=%v, want 2 complaints across 2 fabrics", inc.Complaints, inc.Fabrics)
	}
	if inc.Summary == "" || inc.FirstNS != at || inc.LastNS != at {
		t.Fatalf("incident summary/span: %+v", inc)
	}
	// The varying dimension is the fabric; the anchor attributes are
	// constant.
	if len(inc.Varying["fabric"]) != 2 {
		t.Fatalf("varying = %v, want 2 fabrics", inc.Varying)
	}
	in, err := q.QueryIncidents(wire.IncidentQuery{Node: -1, FromNS: at - 1000, ToNS: at + 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(in) != 1 {
		t.Fatalf("covering time-range query returned %d, want 1", len(in))
	}
	out, err := q.QueryIncidents(wire.IncidentQuery{Node: -1, FromNS: at + time2ms})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("disjoint time-range query returned %d, want 0", len(out))
	}
	if _, err := q.QueryIncidents(wire.IncidentQuery{Type: "no-such-type", Node: -1}); err == nil {
		t.Fatal("unknown type accepted")
	}

	st := s.Stats()
	if st.Ingested != 2 || st.Dropped != 0 || st.Incidents != 1 || st.OpenIncidents != 1 {
		t.Fatalf("fleet stats = %+v", st)
	}
	if st.Sessions != 4 {
		t.Fatalf("sessions = %d, want 4 (2 fabrics + 2 operators)", st.Sessions)
	}
}

// TestOperatorSessionCannotDiagnose pins the operator-session contract:
// no topology means no reports and no diagnoses.
func TestOperatorSessionCannotDiagnose(t *testing.T) {
	s := newServer(t)
	c, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.DiagnoseAt(packetFiveTuple{SrcIP: 1, DstIP: 2, Proto: 17}, 0); err == nil {
		t.Fatal("operator session diagnosed")
	}
}

// TestSubscriberOutlivesProducers: events keep flowing as fabrics come
// and go; closing the server closes the tail cleanly.
func TestSubscriberClosedOnServerClose(t *testing.T) {
	s := newServer(t)
	tail, err := DialOperator(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	if err := tail.Subscribe(wire.SubscribeRequest{Node: -1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.NextEvent(); err == nil {
		t.Fatal("NextEvent succeeded on a closed server")
	}
}
