package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"hawkeye/internal/analyzd"
	"hawkeye/internal/rollup"
	"hawkeye/internal/sim"
	"hawkeye/internal/wire"
)

// ShardSpec names one shard and where its current primary answers.
type ShardSpec struct {
	Name string
	Addr string
}

// ShardError is one shard's failure inside a fan-out: the front door
// returns whatever the reachable shards answered plus this, so a dead
// shard degrades a cluster query instead of failing it.
type ShardError struct {
	Shard string
	Err   error
}

func (e ShardError) Error() string { return fmt.Sprintf("shard %s: %v", e.Shard, e.Err) }

// ShardStatus is one shard's row in a cluster health probe.
type ShardStatus struct {
	Spec   ShardSpec
	Health *wire.Health
	Info   *wire.ShardInfo
	Err    error
}

// Frontdoor fans operator queries out across a cluster's shards and
// merges the answers. Routing is the same consistent-hash ring every
// shard and writer uses (fabric-scoped queries go to one shard); fleet-
// wide queries hit every shard concurrently, and results are collected
// in fixed shard order before merging — the submission-order discipline
// the experiment runner uses, so a cluster query is as deterministic as
// its shards' contents. Incidents merge by (first-seen, shard order);
// rollup windows merge by sketch state, which is why the fan-out asks
// every shard for sketches even when the caller did not.
type Frontdoor struct {
	pool *shardPool

	mu   sync.Mutex
	ring *Ring
	// reshard, when set, overrides fabric routing per the in-flight
	// plan.
	reshard *ReshardState
}

// NewFrontdoor builds a front door over the shard set. The ring is
// derived from the shard names with the given vnodes and seed — they
// must match what the writers routing fabrics used, or Owner disagrees
// with where the records actually live.
func NewFrontdoor(specs []ShardSpec, vnodes int, seed uint64) (*Frontdoor, error) {
	pool, err := newShardPool("frontdoor", specs, analyzd.DefaultRetryConfig(), nil)
	if err != nil {
		return nil, err
	}
	ring, err := NewRing(pool.names(), vnodes, seed)
	if err != nil {
		return nil, err
	}
	return &Frontdoor{pool: pool, ring: ring}, nil
}

// Ring exposes the routing ring.
func (fd *Frontdoor) Ring() *Ring {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.ring
}

// Shards returns the shard set in merge order: shard name, so the
// fan-out collection order is a property of the cluster, not of the
// caller's spec ordering.
func (fd *Frontdoor) Shards() []ShardSpec { return fd.pool.shards() }

// Owner returns the shard owning a fabric, honoring an in-flight
// reshard: the old owner until the fabric's cutover completes, the new
// owner after.
func (fd *Frontdoor) Owner(fabric string) ShardSpec {
	fd.mu.Lock()
	rs, ring := fd.reshard, fd.ring
	fd.mu.Unlock()
	var name string
	if rs != nil {
		name = rs.Owner(fabric)
	} else {
		name = ring.Owner(fabric)
	}
	spec, _ := fd.pool.spec(name) // the ring only knows pool names
	return spec
}

// SetReshard points fabric routing at an in-flight reshard plan.
func (fd *Frontdoor) SetReshard(rs *ReshardState) {
	fd.mu.Lock()
	fd.reshard = rs
	fd.mu.Unlock()
}

// FinishReshard adopts the migrated ring and clears the plan.
func (fd *Frontdoor) FinishReshard() {
	fd.mu.Lock()
	if fd.reshard != nil {
		fd.ring = fd.reshard.NextRing()
		fd.reshard = nil
	}
	fd.mu.Unlock()
}

// NoteEpoch records a shard's observed fencing epoch; every fresh dial
// to that shard announces it, demoting a revived stale primary on
// first contact.
func (fd *Frontdoor) NoteEpoch(shard string, epoch uint64) { fd.pool.noteEpoch(shard, epoch) }

// Update repoints one shard at a new primary address (after a
// failover promotion) and drops any cached session to the old one.
func (fd *Frontdoor) Update(spec ShardSpec) error { return fd.pool.update(spec) }

// Close drops every cached shard session.
func (fd *Frontdoor) Close() { fd.pool.close() }

// fanout runs fn against every shard concurrently and collects the
// failures in shard order. fn runs on distinct sessions, one per
// shard, so slow shards overlap.
func (fd *Frontdoor) fanout(specs []ShardSpec, fn func(i int, c *analyzd.Client) error) []ShardError {
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fd.pool.do(specs[i].Name, func(c *analyzd.Client) error { return fn(i, c) })
		}(i)
	}
	wg.Wait()
	var out []ShardError
	for i, err := range errs {
		if err != nil {
			out = append(out, ShardError{Shard: specs[i].Name, Err: err})
		}
	}
	return out
}

// askOne runs fn against a single shard and shapes its failure like a
// one-shard fan-out.
func (fd *Frontdoor) askOne(shard string, fn func(c *analyzd.Client) error) ([]ShardError, error) {
	if err := fd.pool.do(shard, fn); err != nil {
		return []ShardError{{Shard: shard, Err: err}}, err
	}
	return nil, nil
}

// allDown wraps a fan-out where nothing answered.
func allDown(shards int, errs []ShardError) error {
	if len(errs) == shards {
		return fmt.Errorf("fleet: every shard failed (first: %w)", errs[0].Err)
	}
	return nil
}

// QueryIncidents fans an incident query across the cluster. A fabric-
// scoped query routes to the owning shard alone; otherwise every shard
// answers and the results merge in (FirstNS, shard-order) order — ties
// resolve by the fixed shard ordering, so the merged view is stable.
// Down shards are reported in the ShardError slice; the error is
// non-nil only when no shard answered.
func (fd *Frontdoor) QueryIncidents(q wire.IncidentQuery) ([]wire.FleetIncident, []ShardError, error) {
	if q.Fabric != "" {
		var incs []wire.FleetIncident
		errs, err := fd.askOne(fd.Owner(q.Fabric).Name, func(c *analyzd.Client) (err error) {
			incs, err = c.QueryIncidents(q)
			return err
		})
		return incs, errs, err
	}

	specs := fd.pool.shards()
	perShard := make([][]wire.FleetIncident, len(specs))
	errs := fd.fanout(specs, func(i int, c *analyzd.Client) (err error) {
		perShard[i], err = c.QueryIncidents(q)
		return err
	})
	if err := allDown(len(specs), errs); err != nil {
		return nil, errs, err
	}
	var merged []wire.FleetIncident
	for _, incs := range perShard {
		merged = append(merged, incs...)
	}
	// Stable sort on first-seen: equal timestamps keep shard order, the
	// deterministic-merge discipline.
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].FirstNS < merged[j].FirstNS })
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	return merged, errs, nil
}

// QueryRollups fans a rollup query across the cluster and merges
// same-window summaries by sketch state: counts add exactly, top-K
// sketches union under their combined error bars, quantile buckets
// add. Windows only one shard observed pass through unchanged. The
// fan-out forces IncludeSketches so the merge has state to work with;
// the caller's own flag decides whether the merged windows keep it.
func (fd *Frontdoor) QueryRollups(q wire.RollupQuery) (*wire.RollupResult, []ShardError, error) {
	wantSketches := q.IncludeSketches
	specs := fd.pool.shards()
	if len(specs) == 1 {
		var res *wire.RollupResult
		errs, err := fd.askOne(specs[0].Name, func(c *analyzd.Client) (err error) {
			res, err = c.QueryRollups(q)
			return err
		})
		return res, errs, err
	}

	q.IncludeSketches = true
	results := make([]*wire.RollupResult, len(specs))
	errs := fd.fanout(specs, func(i int, c *analyzd.Client) (err error) {
		results[i], err = c.QueryRollups(q)
		return err
	})
	if err := allDown(len(specs), errs); err != nil {
		return nil, errs, err
	}

	byStart := make(map[int64][]wire.RollupSummary)
	var starts []int64
	var slidings []wire.RollupSummary
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, w := range res.Windows {
			if _, ok := byStart[w.StartNS]; !ok {
				starts = append(starts, w.StartNS)
			}
			byStart[w.StartNS] = append(byStart[w.StartNS], w)
		}
		if res.Sliding != nil {
			slidings = append(slidings, *res.Sliding)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	out := &wire.RollupResult{}
	for _, start := range starts {
		merged, err := mergeWireWindows(byStart[start], wantSketches)
		if err != nil {
			return nil, errs, fmt.Errorf("fleet: merge window at %d: %w", start, err)
		}
		out.Windows = append(out.Windows, merged)
	}
	if q.Windows > 0 && len(out.Windows) > q.Windows {
		out.Windows = out.Windows[len(out.Windows)-q.Windows:]
	}
	// Sliding views merge only when every answering shard produced one
	// over the same span; otherwise the merged result omits it rather
	// than blending mismatched ranges.
	if len(slidings) > 0 && slidingSpansAgree(slidings) {
		merged, err := mergeWireWindows(slidings, wantSketches)
		if err == nil {
			out.Sliding = &merged
		}
	}
	return out, errs, nil
}

func slidingSpansAgree(sums []wire.RollupSummary) bool {
	for i := 1; i < len(sums); i++ {
		if sums[i].StartNS != sums[0].StartNS || sums[i].EndNS != sums[0].EndNS {
			return false
		}
	}
	return true
}

// mergeWireWindows merges same-window summaries from several shards.
// A single summary passes through as-is (modulo sketch stripping).
func mergeWireWindows(ws []wire.RollupSummary, keepSketches bool) (wire.RollupSummary, error) {
	if len(ws) == 1 {
		out := ws[0]
		if !keepSketches {
			out.Sketches = nil
		}
		return out, nil
	}
	sums := make([]rollup.Summary, len(ws))
	for i := range ws {
		s, err := summaryFromWire(&ws[i])
		if err != nil {
			return wire.RollupSummary{}, err
		}
		sums[i] = s
	}
	merged, err := rollup.MergeWindows(sums)
	if err != nil {
		return wire.RollupSummary{}, err
	}
	if !keepSketches {
		merged.Sketches = nil
	}
	return analyzd.SummaryToWire(&merged), nil
}

// summaryFromWire rebuilds the mergeable parts of a shard's window:
// the counts plus the sketch state MergeWindows re-renders everything
// else from. The sketch state crossed a process boundary, so import
// validation (rollup.ErrBadSketchState) runs on every field.
func summaryFromWire(ws *wire.RollupSummary) (rollup.Summary, error) {
	if len(ws.Sketches) == 0 {
		return rollup.Summary{}, fmt.Errorf("window at %d carries no sketch state", ws.StartNS)
	}
	var sk rollup.SummarySketches
	if err := json.Unmarshal(ws.Sketches, &sk); err != nil {
		return rollup.Summary{}, fmt.Errorf("decode sketch state: %w", err)
	}
	return rollup.Summary{
		Start:        sim.Time(ws.StartNS),
		End:          sim.Time(ws.EndNS),
		Closed:       ws.Closed,
		Records:      ws.Records,
		Bytes:        ws.Bytes,
		Evictions:    ws.Evictions,
		ByType:       ws.ByType,
		ByCause:      ws.ByCause,
		ByConfidence: ws.ByConfidence,
		Sketches:     &sk,
	}, nil
}

var errUnreachable = errors.New("unreachable")

// Health probes every shard: lifecycle health plus cluster identity
// (role, replication lag, last checkpoint). Rows come back in shard
// order with per-shard errors inline — a down shard is a row, not a
// failure.
func (fd *Frontdoor) Health() []ShardStatus {
	specs := fd.pool.shards()
	rows := make([]ShardStatus, len(specs))
	for i, spec := range specs {
		// Stands when the dial fails before the probe below runs.
		rows[i] = ShardStatus{Spec: spec, Err: errUnreachable}
	}
	fd.fanout(specs, func(i int, c *analyzd.Client) error {
		row := &rows[i]
		if row.Health, row.Err = c.Health(); row.Err == nil {
			row.Info, row.Err = c.ShardInfo()
		}
		if row.Err == nil {
			fd.NoteEpoch(row.Spec.Name, row.Info.Epoch)
		}
		return row.Err
	})
	return rows
}

// TailEvent is one incident event annotated with its source shard.
type TailEvent struct {
	Shard string
	Event wire.IncidentEvent
}

// Tail is a cluster-wide incident subscription: one session per shard,
// fanned into a single channel.
type Tail struct {
	events chan TailEvent
	stop   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
	conns  []*analyzd.Client
}

// Events is the merged stream. It closes after Close, or once every
// shard's session has ended.
func (t *Tail) Events() <-chan TailEvent { return t.events }

// Close ends every shard session and waits for the forwarders.
func (t *Tail) Close() {
	t.once.Do(func() { close(t.stop) })
	for _, c := range t.conns {
		c.Close()
	}
	t.wg.Wait()
}

// Subscribe opens a live incident tail across the cluster: a dedicated
// operator session per shard (subscriptions consume their session), a
// forwarder each, one merged channel. A fabric-scoped request tails
// only the owning shard. Shards that refused the subscription are in
// the ShardError slice; the error is non-nil when none accepted.
func (fd *Frontdoor) Subscribe(req wire.SubscribeRequest, buf int) (*Tail, []ShardError, error) {
	if buf <= 0 {
		buf = 64
	}
	specs := fd.pool.shards()
	if req.Fabric != "" {
		specs = []ShardSpec{fd.Owner(req.Fabric)}
	}
	t := &Tail{events: make(chan TailEvent, buf), stop: make(chan struct{})}
	var errs []ShardError
	for _, spec := range specs {
		c, err := analyzd.DialOperatorRetry(spec.Addr, fd.pool.retry)
		if err != nil {
			errs = append(errs, ShardError{Shard: spec.Name, Err: err})
			continue
		}
		if err := c.Subscribe(req); err != nil {
			c.Close()
			errs = append(errs, ShardError{Shard: spec.Name, Err: err})
			continue
		}
		t.conns = append(t.conns, c)
		t.wg.Add(1)
		go func(name string, c *analyzd.Client) {
			defer t.wg.Done()
			for {
				ev, err := c.NextEvent()
				if err != nil {
					return // drain, connection loss or Close
				}
				select {
				case t.events <- TailEvent{Shard: name, Event: *ev}:
				case <-t.stop:
					return
				}
			}
		}(spec.Name, c)
	}
	if len(t.conns) == 0 {
		close(t.events)
		first := fmt.Errorf("no shards")
		if len(errs) > 0 {
			first = errs[0].Err
		}
		return nil, errs, fmt.Errorf("fleet: every shard refused the tail (first: %w)", first)
	}
	go func() {
		t.wg.Wait()
		close(t.events)
	}()
	return t, errs, nil
}
