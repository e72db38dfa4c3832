package main

import (
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/core"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/experiments"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/host"
	"hawkeye/internal/packet"
	"hawkeye/internal/provenance"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
	"hawkeye/internal/workload"
)

const (
	// redialEvery bounds the server session's diagnosis history: the
	// client hangs up and dials again after this many rounds. It is a
	// multiple of every reportsEvery, so a fresh session always starts
	// with a report-carrying round.
	redialEvery = 256
	// replayEvery: every n-th op of a traced window also goes through
	// each layer's public function directly. It shares no factor with the
	// 64-round report cycle, so report-carrying rounds are replayed in
	// the proportion they occur.
	replayEvery = 17
	svcFabric   = "bench"
	// corpusSeed is the one pfc-storm trial every run takes its report
	// set and victims from; -seed orders the victims. Verdict cost follows
	// the size of the trial's provenance graph, which moves ±20% from one
	// trial seed to the next — far more than any bound here — so a corpus
	// that changed with -seed would make runs incomparable across seeds.
	corpusSeed = 1000
)

type svcVictim struct {
	tuple packet.FiveTuple
	atNS  int64
}

// svc is the service path: one persistent fabric session to an
// in-memory analyzd server over loopback TCP. Each round asks for the
// verdict on the next ground-truth victim of one pfc-storm trial; every
// reportsEvery-th round first pushes the scored session's report set.
// One closed-loop client: the next round starts when the verdict of the
// previous one is decoded.
type svc struct {
	cfg          config
	reportsEvery int
	// regressTaken makes every report set end with a report whose
	// snapshot time runs backwards, which the server must reject: the
	// test that the oracles bite sets it.
	regressTaken bool

	topo        *topo.Topology // as the server rebuilds it from the handshake
	clientTopo  *topo.Topology
	epochNS     int64
	reports     []*telemetry.Report
	hosts       []*telemetry.HostReport
	victims     []svcVictim
	scored      int // index into victims
	scoredType  string
	reportBytes float64 // mean encoded size of one switch report

	srv     *analyzd.Server
	cl      *analyzd.Client
	round   int // rounds over the server's life
	sent    int // verdicts the server was asked for
	prefill int // records put into the server's store during set-up
	first   []*wire.Diagnosis
	stats   analyzd.Stats // read after srv.Close()

	// replay state: what the server keeps per session or process, and a
	// loopback socket pair of its own so frame cost includes the syscalls
	near, far           net.Conn
	validator           *wire.Validator
	lim                 telemetry.Limits
	store               *fleetstore.Store
	summarizer          *rollup.Summarizer
	verdictBytes        []float64
	buildKB, buildAlloc []float64
}

func newSvc(cfg config, reportsEvery int) bench { return &svc{cfg: cfg, reportsEvery: reportsEvery} }

func (s *svc) setup() error {
	trial, err := experiments.RunTrial(experiments.DefaultTrialConfig(workload.NameStorm, corpusSeed))
	if err != nil {
		return err
	}
	if trial.Score.Result == nil {
		return fmt.Errorf("corpus trial seed %d scored no complaint", corpusSeed)
	}
	scored := trial.Score.Result
	sess := trial.Sys.Sessions()[scored.Trigger.DiagID]
	s.clientTopo = trial.Cl.Topo
	s.epochNS = int64(trial.Sys.Cfg.Telemetry.EpochSize())
	s.reports = sortedReports(sess.Reports)
	s.hosts = sortedHostReports(sess.HostReports)
	s.scoredType = scored.Diagnosis.Type.String()
	total := 0
	for _, rep := range s.reports {
		b, err := rep.MarshalBinary()
		if err != nil {
			return err
		}
		total += len(b)
	}
	s.reportBytes = float64(total) / float64(len(s.reports))

	// One complaint per distinct ground-truth victim, at its first
	// trigger once the anomaly has begun; the scored complaint keeps its
	// own instant. The victims are put in a canonical order, then
	// shuffled by -seed.
	seen := map[packet.FiveTuple]bool{scored.Trigger.Victim: true}
	s.victims = []svcVictim{{scored.Trigger.Victim, int64(scored.Trigger.At)}}
	for _, res := range trial.Results {
		v := res.Trigger.Victim
		if !trial.GT.Victims[v] || res.Trigger.At < trial.GT.AnomalyAt || seen[v] {
			continue
		}
		seen[v] = true
		s.victims = append(s.victims, svcVictim{v, int64(res.Trigger.At)})
	}
	sort.Slice(s.victims, func(i, j int) bool {
		if s.victims[i].atNS != s.victims[j].atNS {
			return s.victims[i].atNS < s.victims[j].atNS
		}
		return s.victims[i].tuple.String() < s.victims[j].tuple.String()
	})
	rng := sim.NewRand(s.cfg.seed)
	for i := len(s.victims) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		s.victims[i], s.victims[j] = s.victims[j], s.victims[i]
	}
	for i, v := range s.victims {
		if v.tuple == scored.Trigger.Victim {
			s.scored = i
		}
	}
	s.first = make([]*wire.Diagnosis, len(s.victims))

	spec, err := json.Marshal(s.clientTopo.ToSpec())
	if err != nil {
		return err
	}
	if s.topo, err = topo.ParseSpecJSON(spec); err != nil {
		return err
	}
	s.validator = wire.NewValidator(s.topo)
	s.lim = telemetry.LimitsFor(s.topo.LinkBandwidth, s.epochNS)
	s.summarizer = rollup.New(rollup.Config{})
	fcfg := fleetstore.DefaultConfig()
	fcfg.Observer = rollup.New(rollup.Config{})
	s.store = fleetstore.New(fcfg)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	if s.near, err = net.Dial("tcp", lis.Addr().String()); err != nil {
		return err
	}
	if s.far, err = lis.Accept(); err != nil {
		return err
	}

	if s.srv, err = analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{}); err != nil {
		return err
	}
	// Fill the store's retention rings, so the measured window runs in
	// the state a long-lived analyzer is in: every admission evicts. A
	// ring holds ShardCapacity records of one fabric and one 2^20 ns
	// bucket of trigger time.
	buckets := make(map[int64]bool)
	for _, v := range s.victims {
		buckets[v.atNS>>20] = true
	}
	s.prefill = len(buckets) * fleetstore.DefaultConfig().ShardCapacity
	if s.cfg.tiny {
		s.prefill = 64
	}
	for i := 0; i < s.prefill; i++ {
		v := s.victims[i%len(s.victims)]
		s.srv.Fleet().Add(fleetstore.Record{
			Fabric: svcFabric, At: sim.Time(v.atNS), Victim: v.tuple.String(),
			Type: scored.Diagnosis.Type, Cause: scored.Diagnosis.PrimaryCause().Kind,
			Node: scored.Diagnosis.PrimaryCause().Port.Node, Port: scored.Diagnosis.PrimaryCause().Port.Port,
			Confidence: scored.Diagnosis.Confidence, Score: scored.Diagnosis.ConfidenceScore,
		})
	}
	// Warm-up: one pass over the victims fills the first-reply table the
	// oracle compares against, and the server's heap.
	warm := &window{}
	for range s.victims {
		s.op(warm, nil, 0)
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	if got := s.first[s.scored].Type; got != s.scoredType {
		return fmt.Errorf("wire verdict for the scored victim is %q, the trial scored %q", got, s.scoredType)
	}
	return nil
}

func (s *svc) dial() error {
	if s.cl != nil {
		s.cl.Close()
	}
	var err error
	s.cl, err = analyzd.DialFabric(s.srv.Addr(), svcFabric, s.clientTopo, s.epochNS)
	return err
}

// op runs one round and returns whether it carried the report set.
func (s *svc) op(w *window, tr *tracer, op int) bool {
	if s.round%redialEvery == 0 {
		var err error
		tr.live("analyzd.DialFabric", -1, op, func() { err = s.dial() })
		if err != nil {
			w.ops++
			w.fail("dial: %v", err)
			return false
		}
	}
	carries := s.round%s.reportsEvery == 0
	idx := s.round % len(s.victims)
	v := s.victims[idx]
	s.round++
	w.ops++

	root := tr.begin("benchmark.op", -1, op, false)
	t0 := time.Now()
	var err error
	if carries {
		for _, rep := range s.reports {
			tr.live("analyzd.Client.SendReport", root, op, func() { err = s.cl.SendReport(rep) })
			if err != nil {
				break
			}
		}
		for _, hr := range s.hosts {
			if err != nil {
				break
			}
			tr.live("analyzd.Client.SendHostReport", root, op, func() { err = s.cl.SendHostReport(hr) })
		}
		if s.regressTaken && err == nil {
			stale := *s.reports[0]
			stale.Taken--
			err = s.cl.SendReport(&stale)
		}
	}
	var d *wire.Diagnosis
	if err == nil {
		s.sent++
		tr.live("analyzd.Client.DiagnoseAt", root, op, func() { d, err = s.cl.DiagnoseAt(v.tuple, v.atNS) })
	}
	dt := time.Since(t0)
	tr.end(root)
	w.wall += dt
	w.opMS = append(w.opMS, dt.Seconds()*1e3)
	switch {
	case err != nil:
		w.fail("round %d: %v", s.round-1, err)
	case s.first[idx] == nil:
		s.first[idx] = d
	case !sameVerdict(d, s.first[idx]):
		w.fail("round %d: verdict for victim %d (%s %s N%d.P%d %s) differs from its first reply (%s %s N%d.P%d %s)",
			s.round-1, idx, d.Type, d.CauseKind, d.InitialNode, d.InitialPort, d.Confidence,
			s.first[idx].Type, s.first[idx].CauseKind, s.first[idx].InitialNode, s.first[idx].InitialPort, s.first[idx].Confidence)
	}
	return carries
}

func sameVerdict(a, b *wire.Diagnosis) bool {
	return a.Type == b.Type && a.CauseKind == b.CauseKind && a.InitialNode == b.InitialNode &&
		a.InitialPort == b.InitialPort && a.Confidence == b.Confidence && a.Score == b.Score &&
		a.Switches == b.Switches && a.Rendered == b.Rendered
}

func (s *svc) measure(d time.Duration, tr *tracer, replay bool) *window {
	w := &window{}
	m := startMeter()
	for op := 0; w.wall < d; op++ {
		carried := s.op(w, tr, op)
		if replay && op%replayEvery == 0 {
			m.excluding(func() { s.replay(tr, op, carried) })
			w.replayed++
		}
		if s.cfg.tiny && op >= 2*redialEvery {
			break
		}
	}
	m.stop(w)
	return w
}

// replay feeds the round's input through every layer the round crossed,
// client side and server side, one public call at a time. Spans hang
// off a replay root so they share the op id but lie outside the op's
// own interval.
func (s *svc) replay(tr *tracer, op int, carried bool) {
	root := tr.begin("benchmark.replay", -1, op, true)
	defer tr.end(root)
	if carried {
		// Stage by stage, as the frames cross the session: the set fits
		// the socket buffer, so one goroutine can write it all, then read
		// it all back on the other end.
		encoded := make([][]byte, len(s.reports))
		for i, rep := range s.reports {
			tr.replayed("telemetry.Report.MarshalBinary", root, op, func() { encoded[i], _ = rep.MarshalBinary() })
		}
		for _, data := range encoded {
			tr.replayed("wire.WriteFrame(report)", root, op, func() { wire.WriteFrame(s.near, wire.MsgReport, data) })
		}
		for i := range encoded {
			tr.replayed("wire.ReadFrame(report)", root, op, func() { _, encoded[i], _ = wire.ReadFrame(s.far) })
		}
		for _, payload := range encoded {
			dec := &telemetry.Report{}
			tr.replayed("telemetry.Report.UnmarshalBinary", root, op, func() { dec.UnmarshalBinary(payload) })
			tr.replayed("wire.Validator.CheckReport", root, op, func() { s.validator.CheckReport(dec) })
			tr.replayed("telemetry.SanitizeReport", root, op, func() { telemetry.SanitizeReport(dec, s.lim) })
		}
		// Host reports are 64 bytes each; one span per stage covers the set.
		frames := make([][]byte, len(s.hosts))
		tr.replayed("telemetry.HostReport.MarshalBinary", root, op, func() {
			for i, hr := range s.hosts {
				frames[i], _ = hr.MarshalBinary()
			}
		})
		tr.replayed("wire.WriteFrame(hostreport)", root, op, func() {
			for _, f := range frames {
				wire.WriteFrame(s.near, wire.MsgHostReport, f)
			}
		})
		tr.replayed("wire.ReadFrame(hostreport)", root, op, func() {
			for i := range frames {
				_, frames[i], _ = wire.ReadFrame(s.far)
			}
		})
		decoded := make([]telemetry.HostReport, len(frames))
		tr.replayed("telemetry.HostReport.UnmarshalBinary", root, op, func() {
			for i, f := range frames {
				decoded[i].UnmarshalBinary(f)
			}
		})
		hostLim := telemetry.HostLimitsFor(s.topo.LinkBandwidth)
		tr.replayed("wire.Validator.CheckHostReport", root, op, func() {
			for i := range decoded {
				s.validator.CheckHostReport(&decoded[i])
				telemetry.SanitizeHostReport(&decoded[i], hostLim)
			}
		})
	}

	v := s.victims[(s.round-1)%len(s.victims)]
	pcfg := provenance.DefaultConfig(s.topo.LinkBandwidth, s.epochNS)
	var g *provenance.Graph
	tr.replayed("provenance.Build", root, op, func() { g = provenance.Build(pcfg, s.reports, s.topo) })
	tr.replayed("provenance.Graph.AddHostReport", root, op, func() {
		for _, hr := range s.hosts {
			g.AddHostReport(hr, s.topo)
		}
	})
	var d *diagnosis.Report
	tr.replayed("diagnosis.Diagnose", root, op, func() { d = diagnosis.Diagnose(diagnosis.DefaultConfig(), g, s.topo, v.tuple) })
	var rendered string
	tr.replayed("diagnosis.Report.String", root, op, func() { rendered = d.String() })
	tr.replayed("provenance.Graph.String", root, op, func() { rendered += g.String() })

	cause := d.PrimaryCause()
	reply := wire.Diagnosis{
		Type: d.Type.String(), CauseKind: cause.Kind.String(),
		InitialNode: int(cause.Port.Node), InitialPort: cause.Port.Port,
		Rendered: rendered, Switches: len(s.reports),
		Confidence: d.Confidence.String(), Score: d.ConfidenceScore, Missing: d.Missing,
	}
	for _, f := range cause.Flows {
		reply.Culprits = append(reply.Culprits, f.String())
	}
	var body, payload []byte
	tr.replayed("wire.Diagnosis/json.Marshal", root, op, func() { body, _ = json.Marshal(reply) })
	tr.replayed("wire.WriteFrame(request)", root, op, func() {
		wire.WriteFrame(s.near, wire.MsgDiagnose, wire.EncodeDiagnoseRequest(v.tuple, v.atNS))
	})
	tr.replayed("wire.ReadFrame(request)", root, op, func() { wire.ReadFrame(s.far) })
	tr.replayed("wire.WriteFrame(verdict)", root, op, func() { wire.WriteFrame(s.far, wire.MsgDiagnosis, body) })
	tr.replayed("wire.ReadFrame(verdict)", root, op, func() { _, payload, _ = wire.ReadFrame(s.near) })
	tr.replayed("wire.Diagnosis/json.Unmarshal", root, op, func() {
		var out wire.Diagnosis
		json.Unmarshal(payload, &out)
	})
	s.verdictBytes = append(s.verdictBytes, float64(len(body)))

	res := &core.Result{Trigger: host.Trigger{Victim: v.tuple, At: sim.Time(v.atNS)}, Diagnosis: d}
	var rec fleetstore.Record
	tr.replayed("fleetstore.Store.Add", root, op, func() {
		rec = fleetstore.NewRecord(svcFabric, res)
		s.store.Add(rec)
	})
	tr.replayed("rollup.Summarizer.ObserveRecord", root, op, func() { s.summarizer.ObserveRecord(&rec) })

	// Build's allocation cost, from one more call between two MemStats
	// reads. The server is idle here: its only client is this goroutine.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	provenance.Build(pcfg, s.reports, s.topo)
	runtime.ReadMemStats(&m1)
	s.buildKB = append(s.buildKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
	s.buildAlloc = append(s.buildAlloc, float64(m1.Mallocs-m0.Mallocs))
}

// teardown closes client and server, then reads the server's counters:
// Close is the drain barrier, so every verdict's record has been
// admitted (or counted dropped) by the time Stats is read.
func (s *svc) teardown() []string {
	for _, c := range []net.Conn{s.near, s.far} {
		if c != nil {
			c.Close()
		}
	}
	if s.cl != nil {
		s.cl.Close()
	}
	if s.srv == nil {
		return nil
	}
	var problems []string
	if err := s.srv.Close(); err != nil {
		problems = append(problems, fmt.Sprintf("server close: %v", err))
	}
	st := s.srv.Stats()
	s.stats = st
	if st.Diagnoses != s.sent {
		problems = append(problems, fmt.Sprintf("server counted %d diagnoses, client asked for %d", st.Diagnoses, s.sent))
	}
	if st.Ingested != uint64(st.Diagnoses+s.prefill) {
		problems = append(problems, fmt.Sprintf("store ingested %d records, want %d diagnoses + %d prefilled", st.Ingested, st.Diagnoses, s.prefill))
	}
	if n := st.Dropped + st.DecodeErrors + st.RejectedReports + st.RejectedHostReports; n != 0 {
		problems = append(problems, fmt.Sprintf("server dropped=%d decodeErrors=%d rejectedReports=%d rejectedHostReports=%d, want all 0",
			st.Dropped, st.DecodeErrors, st.RejectedReports, st.RejectedHostReports))
	}
	return problems
}

var svcLedger = []ledgerRow{
	{span: "telemetry.Report.MarshalBinary", onPath: true},
	{span: "wire.WriteFrame(report)", onPath: true},
	{span: "wire.ReadFrame(report)", onPath: true},
	{span: "telemetry.Report.UnmarshalBinary", onPath: true},
	{span: "wire.Validator.CheckReport", onPath: true},
	{span: "telemetry.SanitizeReport", onPath: true},
	{span: "telemetry.HostReport.MarshalBinary", onPath: true},
	{span: "wire.WriteFrame(hostreport)", onPath: true},
	{span: "wire.ReadFrame(hostreport)", onPath: true},
	{span: "telemetry.HostReport.UnmarshalBinary", onPath: true},
	{span: "wire.Validator.CheckHostReport", onPath: true},
	{span: "provenance.Build", onPath: true},
	{span: "provenance.Graph.AddHostReport", onPath: true},
	{span: "diagnosis.Diagnose", onPath: true},
	{span: "diagnosis.Report.String", onPath: true},
	{span: "provenance.Graph.String", onPath: true},
	{span: "wire.WriteFrame(request)", onPath: true},
	{span: "wire.ReadFrame(request)", onPath: true},
	{span: "wire.Diagnosis/json.Marshal", onPath: true},
	{span: "wire.WriteFrame(verdict)", onPath: true},
	{span: "wire.ReadFrame(verdict)", onPath: true},
	{span: "wire.Diagnosis/json.Unmarshal", onPath: true},
	{span: "fleetstore.Store.Add", note: "async behind pipe.Offer"},
	{span: "rollup.Summarizer.ObserveRecord", note: "inside fleetstore.Store.Add"},
}

func (s *svc) layers(w *window, tr *tracer, m map[string]float64) {
	m["telemetry.marshal_us_per_report"] = mean(tr.micros("telemetry.Report.MarshalBinary"))
	m["telemetry.unmarshal_us_per_report"] = mean(tr.micros("telemetry.Report.UnmarshalBinary"))
	m["telemetry.report_bytes"] = s.reportBytes
	m["wire.frame_us_per_report"] = mean(tr.micros("wire.WriteFrame(report)")) + mean(tr.micros("wire.ReadFrame(report)"))
	m["wire.validate_us_per_report"] = mean(tr.micros("wire.Validator.CheckReport")) + mean(tr.micros("telemetry.SanitizeReport"))
	m["wire.verdict_json_us"] = mean(tr.micros("wire.Diagnosis/json.Marshal")) + mean(tr.micros("wire.Diagnosis/json.Unmarshal"))
	m["wire.verdict_bytes"] = mean(s.verdictBytes)
	m["provenance.build_us_p50"] = median(tr.micros("provenance.Build"))
	m["provenance.build_kb_per_call"] = mean(s.buildKB)
	m["provenance.build_allocs_per_call"] = mean(s.buildAlloc)
	m["provenance.render_us"] = mean(tr.micros("provenance.Graph.String"))
	m["diagnosis.diagnose_us_p50"] = median(tr.micros("diagnosis.Diagnose"))
	m["diagnosis.render_us"] = mean(tr.micros("diagnosis.Report.String"))
	m["fleetstore.add_us"] = mean(tr.micros("fleetstore.Store.Add"))
	m["rollup.observe_us"] = mean(tr.micros("rollup.Summarizer.ObserveRecord"))
	m["analyzd.handshake_ms"] = mean(tr.micros("analyzd.DialFabric")) / 1e3
	m["analyzd.send_report_us"] = mean(tr.micros("analyzd.Client.SendReport"))
	rtt := tr.micros("analyzd.Client.DiagnoseAt")
	m["analyzd.verdict_rtt_p50_us"] = median(rtt)
	m["analyzd.verdict_rtt_p99_ms"] = percentile(rtt, 99) / 1e3
	m["analyzd.report_to_verdict_p50_ms"] = median(w.opMS)
	m["analyzd.decode_errors"] = float64(s.stats.DecodeErrors)
	m["analyzd.rejected_reports"] = float64(s.stats.RejectedReports + s.stats.RejectedHostReports)
	m["analyzd.shed"] = float64(s.stats.ShedQueries + s.stats.ShedSubscriptions + s.stats.ShedRollups)
	m["fleetstore.pipe_dropped"] = float64(s.stats.Dropped)

	printLiveSpans(tr, "benchmark.op")
	m["analyzd.unattributed_us"] = printLedger("report -> verdict", median(w.opMS)*1e3, svcLedger, tr.replayPerOp(), "unattributed (goroutine wake-ups and hand-offs, the server's own loop; less whatever client and server overlap)")
}
