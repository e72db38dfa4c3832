package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleet"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/fleetstore/wal"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
	"hawkeye/internal/wire"
)

const (
	fleetShards      = 3
	fabricsPerShard  = 3
	ringSeed         = 1 // fixed: the shard layout is not an input that varies
	recordsPerPane   = 24
	readerInterval   = 20 * time.Millisecond
	readerOpBase     = 1 << 24 // op ids of the paced reader's spans
	semiSyncTimeout  = 2 * time.Second
	followerDeadline = 10 * time.Second
)

var rollupQuery = wire.RollupQuery{Sliding: 8}

type fleetShard struct {
	name string
	srv  *analyzd.Server
	fl   *fleet.Follower
}

// fleetBench is the fleet path: three durable semi-sync shards, each
// with a live follower, on the repository's filesystem. Records are
// generated from the seed on a synthetic fabric clock that advances one
// rollup pane per recordsPerPane records, so panes open, close and
// retire at a steady rate and every store stays in steady state: each
// fabric is one long-running incident with a bounded victim set.
//
// fleet_mixed: client A (closed loop) writes through fleet.Writer and
// reads its record back through a front door; client B (open loop, one
// query every readerInterval, timed from when it was due) asks a second
// front door for the fleet-wide rollups. fleet_read: client A alone
// issues those rollup queries closed-loop and nothing writes.
type fleetBench struct {
	cfg      config
	readOnly bool

	dir      string
	shards   []*fleetShard
	fabrics  []string
	owner    map[string]*fleetShard
	writer   *fleet.Writer
	fdWrite  *fleet.Frontdoor // client A's read-back
	fdRead   *fleet.Frontdoor // the rollup reader's
	shardOps []*analyzd.Client

	rng     *sim.Rand
	at      sim.Time
	n       int // records generated
	prefill int
	acked   int
	direct  int // records the replication-lag replay added past the writer

	// scratch copies of the layers, in the same -dir, for replays
	memStore     *fleetstore.Store
	durableStore *fleetstore.Store
	groupLog     *wal.Log // group commit, as a primary's
	syncLog      *wal.Log // synchronous, as a follower's
	logSeq       uint64
	summarizer   *rollup.Summarizer

	// traced-window observations
	ackMS, visibleMS, queryMS, lateMS       []float64
	recordBytes, rollupBytes, windowsMerged []float64
	counters                                map[string]float64
}

func newFleet(cfg config, readOnly bool) bench { return &fleetBench{cfg: cfg, readOnly: readOnly} }

func (f *fleetBench) setup() (err error) {
	if f.dir, err = os.MkdirTemp(f.cfg.dir, "fleet-"); err != nil {
		return err
	}
	names := make([]string, fleetShards)
	specs := make([]fleet.ShardSpec, fleetShards)
	f.owner = make(map[string]*fleetShard)
	byName := make(map[string]*fleetShard)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
		sh := &fleetShard{name: names[i]}
		f.shards = append(f.shards, sh)
		byName[sh.name] = sh
		sh.srv, err = analyzd.ListenOpts("127.0.0.1:0", analyzd.Options{
			DataDir: filepath.Join(f.dir, sh.name, "primary"), Shard: sh.name, SemiSync: semiSyncTimeout,
		})
		if err != nil {
			return err
		}
		sh.fl, err = fleet.StartFollower(fleet.FollowerConfig{Addr: sh.srv.Addr(), Dir: filepath.Join(f.dir, sh.name, "follower")})
		if err != nil {
			return err
		}
		specs[i] = fleet.ShardSpec{Name: sh.name, Addr: sh.srv.Addr()}
		op, err := analyzd.DialOperator(sh.srv.Addr())
		if err != nil {
			return err
		}
		f.shardOps = append(f.shardOps, op)
	}
	// Fabric names are taken in order until every shard owns
	// fabricsPerShard of them, so the load is even whatever the ring.
	ring, err := fleet.NewRing(names, 0, ringSeed)
	if err != nil {
		return err
	}
	owned := make(map[string]int)
	for i := 0; len(f.fabrics) < fleetShards*fabricsPerShard; i++ {
		if i > 1000 {
			return fmt.Errorf("ring leaves a shard without fabrics: %v", owned)
		}
		name := fmt.Sprintf("fab%02d", i)
		if o := ring.Owner(name); owned[o] < fabricsPerShard {
			owned[o]++
			f.fabrics = append(f.fabrics, name)
			f.owner[name] = byName[o]
		}
	}

	// Prefill past MaxPanes closed panes per shard, at the run's own
	// record density, so a rollup query costs the same from the first
	// measured op to the last. Each shard's records go in order on its
	// own goroutine; the three WALs fsync side by side.
	f.rng = sim.NewRand(f.cfg.seed)
	rcfg := rollup.DefaultConfig()
	panes := rcfg.MaxPanes + rcfg.MaxOpenPanes + 8
	if f.cfg.tiny {
		panes = 4
	}
	perShard := make(map[*fleetShard][]fleetstore.Record)
	for i := 0; i < panes*recordsPerPane; i++ {
		fabric, rec := f.nextRecord()
		rec.Fabric = fabric
		perShard[f.owner[fabric]] = append(perShard[f.owner[fabric]], rec)
		f.prefill++
	}
	var wg sync.WaitGroup
	for sh, recs := range perShard {
		wg.Add(1)
		go func(sh *fleetShard, recs []fleetstore.Record) {
			defer wg.Done()
			for _, rec := range recs {
				sh.srv.Fleet().Add(rec)
			}
		}(sh, recs)
	}
	wg.Wait()
	for _, sh := range f.shards {
		if err := sh.fl.WaitForSeq(sh.srv.Fleet().Seq(), followerDeadline); err != nil {
			return err
		}
	}

	if f.writer, err = fleet.NewWriter(fleet.WriterConfig{Specs: specs, Seed: ringSeed}); err != nil {
		return err
	}
	if f.fdWrite, err = fleet.NewFrontdoor(specs, 0, ringSeed); err != nil {
		return err
	}
	if f.fdRead, err = fleet.NewFrontdoor(specs, 0, ringSeed); err != nil {
		return err
	}

	scratch := filepath.Join(f.dir, "scratch")
	mcfg := fleetstore.DefaultConfig()
	mcfg.Observer = rollup.New(rollup.Config{})
	f.memStore = fleetstore.New(mcfg)
	dcfg := fleetstore.DefaultConfig()
	dcfg.Observer = rollup.New(rollup.Config{})
	if f.durableStore, err = fleetstore.Open(filepath.Join(scratch, "store"), dcfg); err != nil {
		return err
	}
	if f.groupLog, _, err = wal.Open(filepath.Join(scratch, "wal-group"), wal.Options{}, nil); err != nil {
		return err
	}
	if f.syncLog, _, err = wal.Open(filepath.Join(scratch, "wal-sync"), wal.Options{GroupWindow: -1}, nil); err != nil {
		return err
	}
	f.summarizer = rollup.New(rollup.Config{})

	warm := &window{}
	for i := 0; i < 32 && !f.cfg.tiny; i++ {
		f.op(warm, nil, 0)
	}
	f.query(f.fdRead, warm, nil, 0)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %s", warm.problems[0])
	}
	return nil
}

var (
	fleetTypes  = []diagnosis.AnomalyType{diagnosis.TypePFCStorm, diagnosis.TypePFCContention, diagnosis.TypeNormalContention}
	fleetCauses = []diagnosis.CauseKind{diagnosis.CauseHostInjection, diagnosis.CauseFlowContention, diagnosis.CauseFlowContention}
	fleetConfs  = []diagnosis.Confidence{diagnosis.ConfLow, diagnosis.ConfMedium, diagnosis.ConfHigh, diagnosis.ConfHigh}
	fleetScores = []float64{0.3, 0.6, 0.85, 0.95}
)

// nextRecord draws the next complaint: fabrics take turns, each with its
// own anomaly class, congestion node, 32 victims and 4 culprit flows.
func (f *fleetBench) nextRecord() (string, fleetstore.Record) {
	i := f.n % len(f.fabrics)
	f.n++
	f.at += rollup.DefaultConfig().Pane / recordsPerPane
	grade := f.rng.Intn(len(fleetConfs))
	return f.fabrics[i], fleetstore.Record{
		At:         f.at,
		Victim:     fmt.Sprintf("10.%d.0.%d:4791>10.%d.1.1:4791/17", i, f.rng.Intn(32), i),
		Type:       fleetTypes[i%len(fleetTypes)],
		Cause:      fleetCauses[i%len(fleetCauses)],
		Node:       topo.NodeID(i),
		Port:       f.rng.Intn(4),
		Culprits:   []string{fmt.Sprintf("10.%d.2.%d:4791>10.%d.1.1:4791/17", i, f.rng.Intn(4), i)},
		Pod:        fmt.Sprintf("pod%d", i%4),
		Confidence: fleetConfs[grade],
		Score:      fleetScores[grade],
		StallNS:    int64(1 + f.rng.Intn(1_000_000)),
	}
}

// op is client A's round: a write and its read-back, or (fleet_read) a
// rollup query.
func (f *fleetBench) op(w *window, tr *tracer, op int) {
	if f.readOnly {
		f.query(f.fdWrite, w, tr, op)
		return
	}
	fabric, rec := f.nextRecord()
	w.ops++
	root := tr.begin("benchmark.op", -1, op, false)
	t0 := time.Now()
	var ack *wire.WriteAck
	var err error
	tr.live("fleet.Writer.Write", root, op, func() { ack, err = f.writer.Write(fabric, rec) })
	tAck := time.Since(t0)
	if err != nil {
		tr.end(root)
		w.wall += tAck
		w.fail("write %s: %v", fabric, err)
		return
	}
	f.acked++
	// Read-back: the ack followed admission, so the first fabric-scoped
	// query must already cover the record. A stale read-back is a failed
	// op; the loop only bounds how long one is waited out.
	stale := 0
	for {
		var incs []wire.FleetIncident
		tr.live("fleet.Frontdoor.QueryIncidents", root, op, func() {
			incs, _, err = f.fdWrite.QueryIncidents(wire.IncidentQuery{Fabric: fabric, Node: -1, FromNS: int64(rec.At)})
		})
		if err != nil || covers(incs, fabric, int64(rec.At)) || stale == 100 {
			break
		}
		stale++
	}
	dt := time.Since(t0)
	tr.end(root)
	w.wall += dt
	w.opMS = append(w.opMS, dt.Seconds()*1e3)
	switch {
	case err != nil:
		w.fail("read-back %s: %v", fabric, err)
	case stale > 0:
		w.fail("read-back of %s at %d was stale %d times", fabric, rec.At, stale)
	case ack.Duplicate:
		w.fail("write %s/%d acked as a duplicate", fabric, ack.OriginSeq)
	}
	if tr != nil {
		f.ackMS = append(f.ackMS, tAck.Seconds()*1e3)
		f.visibleMS = append(f.visibleMS, dt.Seconds()*1e3)
	}
}

func covers(incs []wire.FleetIncident, fabric string, atNS int64) bool {
	for i := range incs {
		if incs[i].LastNS < atNS {
			continue
		}
		for _, fab := range incs[i].Fabrics {
			if fab == fabric {
				return true
			}
		}
	}
	return false
}

// query is one closed-loop fleet-wide rollup query (fleet_read's op and
// the warm-up's).
func (f *fleetBench) query(fd *fleet.Frontdoor, w *window, tr *tracer, op int) {
	w.ops++
	root := tr.begin("benchmark.op", -1, op, false)
	t0 := time.Now()
	var res *wire.RollupResult
	var errs []fleet.ShardError
	var err error
	tr.live("fleet.Frontdoor.QueryRollups", root, op, func() { res, errs, err = fd.QueryRollups(rollupQuery) })
	dt := time.Since(t0)
	tr.end(root)
	w.wall += dt
	w.opMS = append(w.opMS, dt.Seconds()*1e3)
	if msg := badRollups(res, errs, err); msg != "" {
		w.fail("%s", msg)
	}
	if tr != nil {
		f.queryMS = append(f.queryMS, dt.Seconds()*1e3)
	}
}

func badRollups(res *wire.RollupResult, errs []fleet.ShardError, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("rollup query: %v", err)
	case len(errs) > 0:
		return fmt.Sprintf("rollup query: %v", errs)
	case len(res.Windows) == 0:
		// The sliding view may be absent: the front door omits it when the
		// shards' newest panes differ, which they do between writes.
		return "rollup query merged no windows"
	}
	return ""
}

// reader is client B: one fleet-wide rollup query every readerInterval,
// on a schedule. A query is timed from when it was due, so a stall that
// delays later queries counts against them.
type reader struct {
	ops, failed     int
	problem         string
	queryMS, lateMS []float64
}

func (f *fleetBench) runReader(stop <-chan struct{}, tr *tracer, r *reader) {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * readerInterval)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		late := time.Since(due)
		var res *wire.RollupResult
		var errs []fleet.ShardError
		var err error
		tr.live("fleet.Frontdoor.QueryRollups", -1, readerOpBase+k, func() { res, errs, err = f.fdRead.QueryRollups(rollupQuery) })
		r.ops++
		r.queryMS = append(r.queryMS, time.Since(due).Seconds()*1e3)
		r.lateMS = append(r.lateMS, late.Seconds()*1e3)
		if msg := badRollups(res, errs, err); msg != "" {
			r.failed++
			r.problem = msg
		}
	}
}

func (f *fleetBench) measure(d time.Duration, tr *tracer, replay bool) *window {
	w := &window{}
	m := startMeter()
	var rd reader
	stop, done := make(chan struct{}), make(chan struct{})
	if !f.readOnly {
		go func() {
			defer close(done)
			f.runReader(stop, tr, &rd)
		}()
	} else {
		close(done)
	}
	for op := 0; w.wall < d; op++ {
		f.op(w, tr, op)
		if replay && op%replayEvery == 0 {
			m.excluding(func() { f.replay(tr, op) })
			w.replayed++
		}
		if f.cfg.tiny && op >= 2*replayEvery {
			break
		}
	}
	close(stop)
	<-done
	w.sideOps = rd.ops
	if rd.failed > 0 {
		w.failed += rd.failed
		w.problems = append(w.problems, fmt.Sprintf("reader: %d of %d queries failed, last: %s", rd.failed, rd.ops, rd.problem))
	}
	if tr != nil && !f.readOnly {
		f.queryMS = append(f.queryMS, rd.queryMS...)
		f.lateMS = append(f.lateMS, rd.lateMS...)
	}
	m.stop(w)
	return w
}

// replay feeds one generated record through every layer of the write
// path, and one query's per-shard answers through every layer of the
// read path, one public call at a time, against scratch copies in the
// same directory. The replication-lag probe alone touches a live shard.
func (f *fleetBench) replay(tr *tracer, op int) {
	root := tr.begin("benchmark.replay", -1, op, true)
	defer tr.end(root)
	if !f.readOnly {
		f.replayWrite(tr, root, op)
	}
	f.replayQuery(tr, root, op)
}

func (f *fleetBench) replayWrite(tr *tracer, root, op int) {
	fabric, rec := f.nextRecord()
	rec.Fabric, rec.OriginSeq = fabric, uint64(f.n)
	var body, envelope []byte
	tr.replayed("fleetstore.Record/json.Marshal", root, op, func() { body, _ = json.Marshal(&rec) })
	f.recordBytes = append(f.recordBytes, float64(len(body)))
	tr.replayed("wire.WriteRequest/json.Marshal", root, op, func() {
		envelope, _ = json.Marshal(wire.WriteRequest{Fabric: fabric, OriginSeq: rec.OriginSeq, Epoch: 1, Record: body})
	})
	var req wire.WriteRequest
	tr.replayed("wire.ParseWriteRequest", root, op, func() { req, _ = wire.ParseWriteRequest(envelope) })
	var dec fleetstore.Record
	tr.replayed("fleetstore.Record/json.Unmarshal", root, op, func() { json.Unmarshal(req.Record, &dec) })
	tr.replayed("fleetstore.Store.AddUnique", root, op, func() { f.memStore.AddUnique(dec) })
	// The store encodes the stamped record once more for its WAL.
	tr.replayed("fleetstore.Record/json.Marshal", root, op, func() { body, _ = json.Marshal(&dec) })
	f.logSeq++
	tr.replayed("wal.Log.Append(group)", root, op, func() { f.groupLog.Append(f.logSeq, body) })
	tr.replayed("wal.Log.Append(sync)", root, op, func() { f.syncLog.Append(f.logSeq, body) })
	tr.replayed("wire.WriteAck/json", root, op, func() {
		b, _ := json.Marshal(wire.WriteAck{Seq: f.logSeq, OriginSeq: rec.OriginSeq, Epoch: 1})
		var ack wire.WriteAck
		json.Unmarshal(b, &ack)
	})
	tr.replayed("fleetstore.Store.Add(durable)", root, op, func() { f.durableStore.Add(dec) })
	tr.replayed("rollup.Summarizer.ObserveRecord", root, op, func() { f.summarizer.ObserveRecord(&dec) })

	// Replication lag on the fabric's live shard: admit the record past
	// the writer, then wait for the follower's durable ack.
	sh := f.owner[fabric]
	rec.OriginSeq = 0
	got := sh.srv.Fleet().Add(rec)
	f.direct++
	tr.replayed("fleet.Follower.WaitForSeq", root, op, func() { sh.fl.WaitForSeq(got.Seq, semiSyncTimeout) })
}

func (f *fleetBench) replayQuery(tr *tracer, root, op int) {
	q := rollupQuery
	q.IncludeSketches = true // as the front door asks its shards
	results := make([]*wire.RollupResult, len(f.shardOps))
	for i, c := range f.shardOps {
		name := "analyzd.Client.QueryRollups"
		if i > 0 {
			name += "(other shards)"
		}
		tr.replayed(name, root, op, func() { results[i], _ = c.QueryRollups(q) })
		if results[i] == nil {
			return
		}
	}
	var body []byte
	tr.replayed("wire.RollupResult/json.Marshal", root, op, func() { body, _ = json.Marshal(results[0]) })
	tr.replayed("wire.RollupResult/json.Unmarshal", root, op, func() {
		var out wire.RollupResult
		json.Unmarshal(body, &out)
	})
	f.rollupBytes = append(f.rollupBytes, float64(len(body)))

	// The front door's merge: group same-start windows (and the sliding
	// views), rebuild each one's sketch state from JSON, merge, and
	// render the merged state back to JSON.
	byStart := make(map[int64][]*wire.RollupSummary)
	var slidings []*wire.RollupSummary
	for _, res := range results {
		for i := range res.Windows {
			byStart[res.Windows[i].StartNS] = append(byStart[res.Windows[i].StartNS], &res.Windows[i])
		}
		if res.Sliding != nil {
			slidings = append(slidings, res.Sliding)
		}
	}
	groups := [][]*wire.RollupSummary{slidings}
	for _, ws := range byStart {
		groups = append(groups, ws)
	}
	merged := 0
	for _, ws := range groups {
		if len(ws) < 2 {
			continue
		}
		sums := make([]rollup.Summary, len(ws))
		tr.replayed("rollup.SummarySketches/json.Unmarshal", root, op, func() {
			for i, w := range ws {
				var sk rollup.SummarySketches
				json.Unmarshal(w.Sketches, &sk)
				sums[i] = rollup.Summary{
					Start: sim.Time(w.StartNS), End: sim.Time(w.EndNS), Closed: w.Closed, Records: w.Records,
					Bytes: w.Bytes, Evictions: w.Evictions,
					ByType: w.ByType, ByCause: w.ByCause, ByConfidence: w.ByConfidence, Sketches: &sk,
				}
			}
		})
		var out rollup.Summary
		var err error
		tr.replayed("rollup.MergeWindows", root, op, func() { out, err = rollup.MergeWindows(sums) })
		if err != nil {
			continue
		}
		tr.replayed("rollup.SummarySketches/json.Marshal", root, op, func() { json.Marshal(out.Sketches) })
		merged++
	}
	f.windowsMerged = append(f.windowsMerged, float64(merged))
}

// teardown checks the fleet's end state, then stops everything and
// removes the run's directory.
func (f *fleetBench) teardown() []string {
	var problems []string
	complain := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	f.counters = make(map[string]float64)
	if f.writer != nil {
		// Redials counts every dial; the first to each shard is no redial.
		f.counters["fleet.writer_redials"] = float64(max(f.writer.Redials.Load(), fleetShards) - fleetShards)
		f.counters["fleet.writer_duplicates"] = float64(f.writer.Duplicates.Load())
		f.counters["fleet.writer_reroutes"] = float64(f.writer.Reroutes.Load())
		f.writer.Close()
	}
	for _, fd := range []*fleet.Frontdoor{f.fdWrite, f.fdRead} {
		if fd != nil {
			fd.Close()
		}
	}
	for _, c := range f.shardOps {
		c.Close()
	}
	ingested := uint64(0)
	for _, sh := range f.shards {
		if sh.srv == nil {
			continue
		}
		seq := sh.srv.Fleet().Seq()
		if sh.fl != nil {
			// Every admission was acked or awaited, so the follower is at
			// most one ack frame behind; the wait is that frame's barrier.
			if err := sh.fl.WaitForSeq(seq, followerDeadline); err != nil || sh.fl.AckedSeq() != seq {
				complain("%s: follower acked %d, primary is at %d (%v)", sh.name, sh.fl.AckedSeq(), seq, err)
			}
			f.counters["fleet.follower_resyncs"] += float64(sh.fl.Resyncs())
			if err := sh.fl.Stop(); err != nil {
				complain("%s: follower stop: %v", sh.name, err)
			}
		}
		if err := sh.srv.Close(); err != nil {
			complain("%s: close: %v", sh.name, err)
		}
		st := sh.srv.Stats()
		ingested += st.Ingested
		f.counters["analyzd.decode_errors"] += float64(st.DecodeErrors)
		f.counters["analyzd.shed"] += float64(st.ShedQueries + st.ShedSubscriptions + st.ShedRollups)
		f.counters["fleetstore.pipe_dropped"] += float64(st.Dropped)
		if st.WALErrors != 0 {
			complain("%s: %d WAL errors", sh.name, st.WALErrors)
		}
	}
	if want := uint64(f.prefill + f.acked + f.direct); len(f.shards) == fleetShards && f.writer != nil && ingested != want {
		complain("primaries ingested %d records, want %d (prefill %d + acked %d + direct %d)", ingested, want, f.prefill, f.acked, f.direct)
	}
	for name, v := range f.counters {
		if v != 0 {
			complain("%s = %g, want 0", name, v)
		}
	}
	if f.groupLog != nil {
		f.counters["wal.appends_per_sync"] = float64(f.groupLog.Appends()) / float64(max(f.groupLog.Syncs(), 1))
		f.groupLog.Close()
	}
	if f.syncLog != nil {
		f.syncLog.Close()
	}
	if f.durableStore != nil {
		f.durableStore.Close()
	}
	if f.dir != "" {
		if err := os.RemoveAll(f.dir); err != nil {
			complain("remove %s: %v", f.dir, err)
		}
	}
	return problems
}

var (
	writeLedger = []ledgerRow{
		{span: "fleetstore.Record/json.Marshal", onPath: true},
		{span: "wire.WriteRequest/json.Marshal", onPath: true},
		{span: "wire.ParseWriteRequest", onPath: true},
		{span: "fleetstore.Record/json.Unmarshal", onPath: true},
		{span: "fleetstore.Store.AddUnique", onPath: true},
		{span: "wal.Log.Append(group)", onPath: true},
		{span: "fleet.Follower.WaitForSeq", onPath: true},
		{span: "wal.Log.Append(sync)", note: "the follower's, inside fleet.Follower.WaitForSeq"},
		{span: "wire.WriteAck/json", onPath: true},
		{span: "fleetstore.Store.Add(durable)", note: "AddUnique plus wal.Log.Append(group) in one call"},
		{span: "rollup.Summarizer.ObserveRecord", note: "inside fleetstore.Store.AddUnique"},
	}
	queryLedger = []ledgerRow{
		{span: "analyzd.Client.QueryRollups", onPath: true},
		{span: "analyzd.Client.QueryRollups(other shards)", note: "fanned out beside the first; what does not overlap lands in the remainder"},
		{span: "wire.RollupResult/json.Marshal", note: "inside analyzd.Client.QueryRollups, server side"},
		{span: "wire.RollupResult/json.Unmarshal", note: "inside analyzd.Client.QueryRollups, client side"},
		{span: "rollup.SummarySketches/json.Unmarshal", onPath: true},
		{span: "rollup.MergeWindows", onPath: true},
		{span: "rollup.SummarySketches/json.Marshal", onPath: true},
	}
)

func (f *fleetBench) layers(w *window, tr *tracer, m map[string]float64) {
	for name, v := range f.counters {
		m[name] = v
	}
	perOp := tr.replayPerOp()
	printLiveSpans(tr, "benchmark.op")

	m["wire.rollup_json_us"] = mean(tr.micros("wire.RollupResult/json.Marshal")) + mean(tr.micros("wire.RollupResult/json.Unmarshal"))
	m["wire.rollup_result_bytes"] = mean(f.rollupBytes)
	m["rollup.merge_windows_us"] = mean(tr.micros("rollup.MergeWindows"))
	m["rollup.windows_merged"] = mean(f.windowsMerged)
	m["fleet.shard_rollups_p50_ms"] = median(tr.micros("analyzd.Client.QueryRollups")) / 1e3
	m["fleet.query_p50_ms"] = median(f.queryMS)
	m["fleet.frontdoor_rollups_p99_ms"] = percentile(tr.micros("fleet.Frontdoor.QueryRollups"), 99) / 1e3
	m["fleet.reader_late_p50_ms"] = median(f.lateMS)
	// The query ledger is against the front door's own service time; the
	// paced reader's query_p50_ms adds how late it was sent.
	m["fleet.query_unattributed_us"] = printLedger("fleet-wide rollup query", median(tr.micros("fleet.Frontdoor.QueryRollups")),
		queryLedger, perOp, "unattributed (fan-out past two cores, sockets, goroutine hand-offs)")
	if f.readOnly {
		return
	}

	m["fleetstore.add_unique_us"] = mean(tr.micros("fleetstore.Store.AddUnique"))
	m["fleetstore.durable_add_p50_ms"] = median(tr.micros("fleetstore.Store.Add(durable)")) / 1e3
	m["fleetstore.record_json_us"] = mean(tr.micros("fleetstore.Record/json.Marshal")) + mean(tr.micros("fleetstore.Record/json.Unmarshal"))
	m["fleetstore.record_bytes"] = mean(f.recordBytes)
	m["rollup.observe_us"] = mean(tr.micros("rollup.Summarizer.ObserveRecord"))
	appends := tr.micros("wal.Log.Append(group)")
	m["wal.append_p50_ms"] = median(appends) / 1e3
	m["wal.append_p99_ms"] = percentile(appends, 99) / 1e3
	m["fleet.repl_ack_lag_p50_ms"] = median(tr.micros("fleet.Follower.WaitForSeq")) / 1e3
	m["fleet.write_to_ack_p50_ms"] = median(f.ackMS)
	m["fleet.write_to_visible_p50_ms"] = median(f.visibleMS)
	m["fleet.write_rtt_p99_ms"] = percentile(f.ackMS, 99)
	m["fleet.frontdoor_incidents_p50_ms"] = median(tr.micros("fleet.Frontdoor.QueryIncidents")) / 1e3
	m["fleet.write_unattributed_us"] = printLedger("write -> semi-sync ack", median(f.ackMS)*1e3,
		writeLedger, perOp, "unattributed (sockets, the writer and server loops, the server's 200 µs ack poll)")
}

// walNoiseFloor is the median wal.Log.Append of a small entry on an
// otherwise idle scratch log under dir: the directory's fsync cost,
// below which no durable write on this filesystem can go.
func walNoiseFloor(dir string) (float64, error) {
	tmp, err := os.MkdirTemp(dir, "walfloor-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	log, _, err := wal.Open(tmp, wal.Options{GroupWindow: -1}, nil)
	if err != nil {
		return 0, err
	}
	defer log.Close()
	payload := make([]byte, 256)
	var ms []float64
	for seq := uint64(1); seq <= 32; seq++ {
		t0 := time.Now()
		if err := log.Append(seq, payload); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms), nil
}
