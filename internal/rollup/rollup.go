// Package rollup is the live semantic summarization layer over the
// fleet store: a streaming summarizer that folds every admitted
// diagnosis record into time-windowed hierarchical rollups so an
// operator tailing the fleet sees "pfc-storm concentrated on pod2 ToR
// uplinks, 312 incidents this window" instead of 312 near-duplicate
// verdicts.
//
// Windows are tumbling panes on the fabric clock; sliding views are
// query-time merges of the most recent panes (sketches are mergeable,
// so no second copy of the stream is kept). Per-pane state is bounded
// by construction: counts per diagnosis attribute (enum-capped),
// SpaceSaving top-K sketches per topology level (fabric -> pod ->
// switch -> port), and log-bucketed quantile sketches for stall
// duration and confidence score. A hard per-pane byte cap is honored by
// shrinking sketch capacities at construction, and every accuracy-
// losing event (sketch eviction, bucket collapse, enum overflow) is
// counted rather than hidden.
package rollup

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"hawkeye/internal/fleetstore"
	"hawkeye/internal/sim"
)

// Level names the topology hierarchy levels a rollup drills into.
// Keys at each level are path-prefixed so a pod's entry is greppable
// from its fabric ("fabA", "fabA/pod2", "fabA/pod2/N5", "fabA/pod2/N5.P3").
var Levels = [4]string{"fabric", "pod", "switch", "port"}

// Config sizes the summarizer. Zero values fall back to defaults; the
// sketch capacities are then shrunk as needed so a pane's worst-case
// accounted footprint never exceeds MaxPaneBytes.
type Config struct {
	// Pane is the tumbling window span on the fabric clock.
	Pane sim.Time
	// MaxPanes bounds how many closed panes are retained (with their
	// sketches) for sliding-window merges and queries.
	MaxPanes int
	// MaxOpenPanes bounds concurrently open panes; overflow closes the
	// oldest early. Out-of-order arrival across fabrics keeps a few
	// panes open at once, but unbounded skew must not mean unbounded
	// state.
	MaxOpenPanes int
	// TopK is the heavy-hitter capacity per topology level.
	TopK int
	// Gamma is the quantile sketch's relative accuracy (>1, e.g. 1.02).
	Gamma float64
	// MaxBuckets caps each quantile sketch's bucket count.
	MaxBuckets int
	// MaxPaneBytes is the hard cap on one pane's accounted bytes.
	MaxPaneBytes int
	// UpdateEvery emits a live "updated" event every this many records
	// folded into a pane (1 = every record; default amortizes).
	UpdateEvery int
	// SubBuf is the default subscriber channel depth.
	SubBuf int
}

// DefaultConfig returns sizes suitable for tests and examples.
func DefaultConfig() Config {
	return Config{
		Pane:         2 * sim.Millisecond,
		MaxPanes:     32,
		MaxOpenPanes: 8,
		TopK:         8,
		Gamma:        1.02,
		MaxBuckets:   128,
		MaxPaneBytes: 16 << 10,
		UpdateEvery:  64,
		SubBuf:       64,
	}
}

// maxEnumKeys caps the per-attribute count maps. Diagnosis enums are
// single-digit cardinality; anything past the cap folds into "other"
// so a corrupted record cannot grow a map without bound.
const maxEnumKeys = 16

// enumOther absorbs attribute values past the enum cap.
const enumOther = "other"

// enumEntryBytes approximates one count-map entry beyond its key.
const enumEntryBytes = 24

// paneFixedBytes is the accounted overhead of a pane shell.
const paneFixedBytes = 192

// worstEnumBytes is the accounted worst case of the three enum maps.
const worstEnumBytes = 3 * maxEnumKeys * (enumEntryBytes + 24)

// worstPaneBytes is the accounted worst case of one pane under cfg.
func worstPaneBytes(topK, maxBuckets int) int {
	return paneFixedBytes + worstEnumBytes +
		len(Levels)*topK*(ssEntryBytes+maxKeyBytes) +
		2*maxBuckets*bucketBytes
}

// withDefaults fills zero fields and shrinks sketch capacities until
// the worst-case pane fits MaxPaneBytes (quantile buckets shrink
// first — the top-K culprit list is the rollup's reason to exist).
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Pane <= 0 {
		c.Pane = d.Pane
	}
	if c.MaxPanes <= 0 {
		c.MaxPanes = d.MaxPanes
	}
	if c.MaxOpenPanes <= 0 {
		c.MaxOpenPanes = d.MaxOpenPanes
	}
	if c.TopK <= 0 {
		c.TopK = d.TopK
	}
	if c.Gamma <= 1 {
		c.Gamma = d.Gamma
	}
	if c.MaxBuckets <= 0 {
		c.MaxBuckets = d.MaxBuckets
	}
	if c.MaxPaneBytes <= 0 {
		c.MaxPaneBytes = d.MaxPaneBytes
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = d.UpdateEvery
	}
	if c.SubBuf <= 0 {
		c.SubBuf = d.SubBuf
	}
	for worstPaneBytes(c.TopK, c.MaxBuckets) > c.MaxPaneBytes {
		if c.MaxBuckets > 16 {
			c.MaxBuckets /= 2
		} else if c.TopK > 2 {
			c.TopK--
		} else {
			// Floor capacities: a cap below the minimum pane is raised to
			// it, so MaxPaneBytes always states a bound that actually holds.
			c.MaxPaneBytes = worstPaneBytes(c.TopK, c.MaxBuckets)
			break
		}
	}
	return c
}

// Quantiles is a rendered quantile-sketch snapshot.
type Quantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Summary is one rendered window: everything an operator line or a
// wire frame needs, detached from the live sketches.
type Summary struct {
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	Closed  bool     `json:"closed"`
	Records uint64   `json:"records"`

	// ByType/ByCause/ByConfidence count records per diagnosis attribute
	// (the constant/varying partition's "what kind" axis).
	ByType       map[string]uint64 `json:"by_type,omitempty"`
	ByCause      map[string]uint64 `json:"by_cause,omitempty"`
	ByConfidence map[string]uint64 `json:"by_confidence,omitempty"`

	// TopLevels holds the heavy-hitter list per topology level
	// ("fabric", "pod", "switch", "port"), count-descending.
	TopLevels map[string][]HeavyHitter `json:"top,omitempty"`

	// StallNS summarizes victim stall durations (ns); Score summarizes
	// diagnosis confidence scores.
	StallNS Quantiles `json:"stall_ns"`
	Score   Quantiles `json:"score"`

	// Bytes is the pane's accounted footprint; Evictions counts every
	// accuracy-losing event folded into it.
	Bytes     int    `json:"bytes"`
	Evictions uint64 `json:"evictions"`

	// Headline is the one-line operator rendering.
	Headline string `json:"headline,omitempty"`

	// Sketches is the window's mergeable sketch state, attached when a
	// query asks for it (cross-shard merging needs states, not rendered
	// quantiles). Nil on ordinary renders.
	Sketches *SummarySketches `json:"sketches,omitempty"`
}

// EventKind classifies rollup lifecycle events.
type EventKind uint8

const (
	// PaneOpened announces a new window.
	PaneOpened EventKind = iota
	// PaneUpdated carries a live snapshot of an open window.
	PaneUpdated
	// PaneClosed carries the final summary of a window.
	PaneClosed
)

func (k EventKind) String() string {
	switch k {
	case PaneOpened:
		return "opened"
	case PaneUpdated:
		return "updated"
	case PaneClosed:
		return "closed"
	}
	return "unknown"
}

// Event is one rollup lifecycle notification.
type Event struct {
	Kind    EventKind
	Summary Summary
}

// pane is one tumbling window's live state.
type pane struct {
	start   sim.Time
	span    sim.Time
	records uint64
	folds   int // records since the last "updated" event

	byType, byCause, byConf map[string]uint64
	enumBytes               int
	enumFolds               uint64

	levels [len(Levels)]*TopK
	stall  *Quantile
	score  *Quantile

	closed bool
}

func newPane(start sim.Time, cfg *Config) *pane {
	p := &pane{
		start:   start,
		span:    cfg.Pane,
		byType:  make(map[string]uint64, 4),
		byCause: make(map[string]uint64, 2),
		byConf:  make(map[string]uint64, 3),
		stall:   NewQuantile(cfg.Gamma, cfg.MaxBuckets),
		score:   NewQuantile(cfg.Gamma, cfg.MaxBuckets),
	}
	for i := range p.levels {
		p.levels[i] = NewTopK(cfg.TopK)
	}
	return p
}

// bumpEnum counts one attribute value, folding overflow into "other".
func (p *pane) bumpEnum(m map[string]uint64, key string) {
	if _, ok := m[key]; !ok && len(m) >= maxEnumKeys {
		key = enumOther
		p.enumFolds++
		if _, ok := m[key]; !ok && len(m) >= maxEnumKeys+1 {
			return // full even of "other": drop, still counted as a fold
		}
	}
	if _, ok := m[key]; !ok {
		p.enumBytes += len(key) + enumEntryBytes
	}
	m[key]++
}

// bytes is the pane's accounted footprint.
func (p *pane) bytes() int {
	b := paneFixedBytes + p.enumBytes
	for _, t := range p.levels {
		b += t.Bytes()
	}
	return b + p.stall.Bytes() + p.score.Bytes()
}

// evictions sums the pane's accuracy-losing events.
func (p *pane) evictions() uint64 {
	ev := p.enumFolds
	for _, t := range p.levels {
		ev += t.Evictions()
	}
	return ev + p.stall.Collapses() + p.score.Collapses()
}

// Stats is a snapshot of summarizer activity.
type Stats struct {
	// WindowsOpen / WindowsClosed count panes currently live / retired.
	WindowsOpen   int
	WindowsClosed uint64
	// Records counts diagnoses folded in; Late counts records dropped
	// because their pane had already closed.
	Records uint64
	Late    uint64
	// Evictions sums accuracy-losing sketch events across retained panes.
	Evictions uint64
	// BytesInUse is the accounted footprint of all retained panes.
	BytesInUse int
	// EventsDropped counts subscription events lost to slow subscribers.
	EventsDropped uint64
	// Subscribers counts live subscriptions.
	Subscribers int
}

// Summarizer consumes the fleet store's record feed and maintains the
// windowed rollups. It implements fleetstore.RecordObserver; wire it
// with fleetstore.Config.Observer. All folds run under one mutex, so
// output is a deterministic function of the record sequence — the
// store already serializes observer calls through admission.
type Summarizer struct {
	cfg Config
	hub *fleetstore.Hub[Event]

	mu        sync.Mutex
	open      map[int64]*pane
	ring      []*pane // closed panes, oldest first
	watermark sim.Time
	// closedThrough is the pane boundary below which arrivals are late.
	closedThrough sim.Time
	shut          bool
	scratch       []byte

	records       atomic.Uint64
	late          atomic.Uint64
	windowsClosed atomic.Uint64
	// retiredEvict carries eviction counts of panes trimmed off the ring.
	retiredEvict uint64
}

// New builds a summarizer.
func New(cfg Config) *Summarizer {
	cfg = cfg.withDefaults()
	return &Summarizer{
		cfg:  cfg,
		open: make(map[int64]*pane),
		hub:  fleetstore.NewHub[Event](cfg.SubBuf),
	}
}

// Config returns the effective (defaulted, byte-cap-fitted) config.
func (s *Summarizer) Config() Config { return s.cfg }

// ObserveRecord folds one admitted record. Never blocks on subscribers
// and never errors: a record that cannot be placed (late) is counted
// and dropped.
func (s *Summarizer) ObserveRecord(rec *fleetstore.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shut || rec.At < 0 {
		return
	}
	if rec.At < s.closedThrough {
		s.late.Add(1)
		return
	}
	idx := int64(rec.At / s.cfg.Pane)
	p := s.open[idx]
	if p == nil {
		if len(s.open) >= s.cfg.MaxOpenPanes {
			s.closeOldestLocked()
		}
		p = newPane(sim.Time(idx)*s.cfg.Pane, &s.cfg)
		s.open[idx] = p
		s.hub.Publish(Event{Kind: PaneOpened, Summary: s.renderLocked(p, "", "")})
	}
	s.foldLocked(p, rec)
	s.records.Add(1)
	p.folds++
	if p.folds >= s.cfg.UpdateEvery {
		p.folds = 0
		s.hub.Publish(Event{Kind: PaneUpdated, Summary: s.renderLocked(p, "", "")})
	}
}

// foldLocked updates one pane's counters and sketches with rec.
func (s *Summarizer) foldLocked(p *pane, rec *fleetstore.Record) {
	p.records++
	p.bumpEnum(p.byType, rec.Type.String())
	p.bumpEnum(p.byCause, rec.Cause.String())
	p.bumpEnum(p.byConf, rec.Confidence.String())

	// Hierarchy keys share one scratch buffer: each level extends the
	// previous one's path, so drill-down is a prefix match.
	b := append(s.scratch[:0], rec.Fabric...)
	p.levels[0].Observe(b)
	b = append(b, '/')
	if rec.Pod != "" {
		b = append(b, rec.Pod...)
	} else {
		b = append(b, '-')
	}
	p.levels[1].Observe(b)
	b = append(b, '/', 'N')
	b = strconv.AppendInt(b, int64(rec.Node), 10)
	p.levels[2].Observe(b)
	b = append(b, '.', 'P')
	b = strconv.AppendInt(b, int64(rec.Port), 10)
	p.levels[3].Observe(b)
	s.scratch = b

	p.stall.Observe(float64(rec.StallNS))
	p.score.Observe(rec.Score)
}

// AdvanceWatermark closes every open pane whose span has fully passed
// the watermark, publishing final summaries.
func (s *Summarizer) AdvanceWatermark(wm sim.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shut || wm <= s.watermark {
		return
	}
	s.watermark = wm
	for {
		var oldest *pane
		var oldestIdx int64
		for idx, p := range s.open {
			if oldest == nil || p.start < oldest.start {
				oldest, oldestIdx = p, idx
			}
		}
		if oldest == nil || oldest.start+oldest.span > wm {
			return
		}
		s.closeLocked(oldestIdx, oldest)
	}
}

// closeOldestLocked early-closes the oldest open pane (open-pane cap).
func (s *Summarizer) closeOldestLocked() {
	var oldest *pane
	var oldestIdx int64
	for idx, p := range s.open {
		if oldest == nil || p.start < oldest.start {
			oldest, oldestIdx = p, idx
		}
	}
	if oldest != nil {
		s.closeLocked(oldestIdx, oldest)
	}
}

// closeLocked retires one pane into the ring and publishes its final
// summary.
func (s *Summarizer) closeLocked(idx int64, p *pane) {
	delete(s.open, idx)
	p.closed = true
	if end := p.start + p.span; end > s.closedThrough {
		s.closedThrough = end
	}
	s.ring = append(s.ring, p)
	if len(s.ring) > s.cfg.MaxPanes {
		drop := s.ring[0]
		s.retiredEvict += drop.evictions()
		copy(s.ring, s.ring[1:])
		s.ring[len(s.ring)-1] = nil
		s.ring = s.ring[:len(s.ring)-1]
	}
	s.windowsClosed.Add(1)
	s.hub.Publish(Event{Kind: PaneClosed, Summary: s.renderLocked(p, "", "")})
}

// Close retires every open pane (publishing final summaries) and
// closes all subscription streams. Idempotent.
func (s *Summarizer) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shut {
		return
	}
	for len(s.open) > 0 {
		s.closeOldestLocked()
	}
	s.shut = true
	s.hub.Close()
}

// ResetObserver discards every pane, the watermark and the late-drop
// cutoff, and zeroes the fold counters, keeping subscribers attached.
// After a reshard cutover or a snapshot restore the store follows it
// with its retained record set in trigger-time order, so migrated
// records — whose trigger times predate the live watermark — land in
// proper panes instead of being dropped as late. No-op once shut.
func (s *Summarizer) ResetObserver() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shut {
		return
	}
	s.open = make(map[int64]*pane)
	s.ring = nil
	s.watermark = 0
	s.closedThrough = 0
	s.records.Store(0)
	s.late.Store(0)
	s.windowsClosed.Store(0)
	s.retiredEvict = 0
}

// Hub exposes the window-event hub. Closing it ends every subscription
// stream but keeps the summarizer folding — the server's drain closes
// subscriber channels early (so forwarders exit) while the ingest queue
// is still flushing its tail into the store, then calls Close once the
// flush is done so final counters cover every admitted record.
func (s *Summarizer) Hub() *fleetstore.Hub[Event] { return s.hub }

// Subscribe registers a rollup event subscriber. closedOnly suppresses
// opened/updated events, delivering only final window summaries.
func (s *Summarizer) Subscribe(closedOnly bool, buf int) *fleetstore.Sub[Event] {
	var match func(*Event) bool
	if closedOnly {
		match = func(ev *Event) bool { return ev.Kind == PaneClosed }
	}
	return s.hub.Subscribe(match, buf)
}

// QueryOpts selects rollup windows. Zero values: Windows <= 0 returns
// every retained pane; Sliding <= 0 skips the merged view; Level and
// Prefix empty return all hierarchy levels unfiltered.
type QueryOpts struct {
	// Windows bounds how many of the most recent panes are returned.
	Windows int
	// Sliding merges the last Sliding panes into one summary.
	Sliding int
	// Level restricts TopLevels to one hierarchy level.
	Level string
	// Prefix restricts heavy-hitter keys to a path prefix — the
	// drill-down handle ("fabA/pod2" narrows every level to that pod).
	Prefix string
	// ClosedOnly excludes still-open panes.
	ClosedOnly bool
	// IncludeSketches attaches each summary's mergeable sketch state —
	// the cross-shard query path sets it so a front door can combine
	// per-shard windows.
	IncludeSketches bool
}

// Result is a query reply: individual panes newest-last, plus the
// optional sliding merge.
type Result struct {
	Panes   []Summary
	Sliding *Summary
}

// Query renders the retained windows. It never touches live sketches
// destructively — sliding merges clone into scratch sketches.
func (s *Summarizer) Query(q QueryOpts) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	panes := make([]*pane, 0, len(s.ring)+len(s.open))
	panes = append(panes, s.ring...)
	if !q.ClosedOnly {
		for _, p := range s.open {
			panes = append(panes, p)
		}
	}
	sort.Slice(panes, func(i, j int) bool { return panes[i].start < panes[j].start })
	if q.Windows > 0 && len(panes) > q.Windows {
		panes = panes[len(panes)-q.Windows:]
	}
	var res Result
	for _, p := range panes {
		sum := s.renderLocked(p, q.Level, q.Prefix)
		if q.IncludeSketches {
			sum.Sketches = p.sketchState()
		}
		res.Panes = append(res.Panes, sum)
	}
	if q.Sliding > 0 && len(panes) > 0 {
		merge := panes
		if len(merge) > q.Sliding {
			merge = merge[len(merge)-q.Sliding:]
		}
		sl := s.mergeLocked(merge, q.Level, q.Prefix, q.IncludeSketches)
		res.Sliding = &sl
	}
	return res
}

// sketchState exports the pane's mergeable sketch state.
func (p *pane) sketchState() *SummarySketches {
	sk := &SummarySketches{Levels: make(map[string]TopKState, len(Levels))}
	for i, name := range Levels {
		sk.Levels[name] = p.levels[i].State()
	}
	sk.Stall = p.stall.State()
	sk.Score = p.score.State()
	return sk
}

// Stats snapshots summarizer activity.
func (s *Summarizer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		WindowsOpen:   len(s.open),
		WindowsClosed: s.windowsClosed.Load(),
		Records:       s.records.Load(),
		Late:          s.late.Load(),
		Evictions:     s.retiredEvict,
		EventsDropped: s.hub.Dropped(),
		Subscribers:   s.hub.Len(),
	}
	for _, p := range s.open {
		st.BytesInUse += p.bytes()
		st.Evictions += p.evictions()
	}
	for _, p := range s.ring {
		st.BytesInUse += p.bytes()
		st.Evictions += p.evictions()
	}
	return st
}

// renderLocked snapshots one pane into a Summary, applying the
// level/prefix drill-down filters.
func (s *Summarizer) renderLocked(p *pane, level, prefix string) Summary {
	sum := Summary{
		Start:        p.start,
		End:          p.start + p.span,
		Closed:       p.closed,
		Records:      p.records,
		ByType:       copyCounts(p.byType),
		ByCause:      copyCounts(p.byCause),
		ByConfidence: copyCounts(p.byConf),
		TopLevels:    make(map[string][]HeavyHitter, len(Levels)),
		StallNS:      renderQuantiles(p.stall),
		Score:        renderQuantiles(p.score),
		Bytes:        p.bytes(),
		Evictions:    p.evictions(),
	}
	for i, name := range Levels {
		if level != "" && name != level {
			continue
		}
		hitters := p.levels[i].Top(0)
		sum.TopLevels[name] = filterHitters(hitters, prefix)
	}
	sum.Headline = headline(&sum)
	return sum
}

// mergeLocked folds several panes into one Summary via scratch
// sketches (sketch merges are order-independent up to the deterministic
// trim, and panes are iterated oldest-first).
func (s *Summarizer) mergeLocked(panes []*pane, level, prefix string, includeSketches bool) Summary {
	sum := Summary{
		Start:        panes[0].start,
		End:          panes[len(panes)-1].start + panes[len(panes)-1].span,
		Closed:       true,
		ByType:       make(map[string]uint64),
		ByCause:      make(map[string]uint64),
		ByConfidence: make(map[string]uint64),
		TopLevels:    make(map[string][]HeavyHitter, len(Levels)),
	}
	var tops [len(Levels)]*TopK
	for i := range tops {
		tops[i] = NewTopK(s.cfg.TopK)
	}
	stall := NewQuantile(s.cfg.Gamma, s.cfg.MaxBuckets)
	score := NewQuantile(s.cfg.Gamma, s.cfg.MaxBuckets)
	for _, p := range panes {
		if !p.closed {
			sum.Closed = false
		}
		sum.Records += p.records
		sum.Bytes += p.bytes()
		addCounts(sum.ByType, p.byType)
		addCounts(sum.ByCause, p.byCause)
		addCounts(sum.ByConfidence, p.byConf)
		for i := range tops {
			tops[i].Merge(p.levels[i])
		}
		stall.Merge(p.stall)
		score.Merge(p.score)
	}
	for i, name := range Levels {
		if level != "" && name != level {
			continue
		}
		sum.TopLevels[name] = filterHitters(tops[i].Top(0), prefix)
	}
	sum.StallNS = renderQuantiles(stall)
	sum.Score = renderQuantiles(score)
	for _, t := range tops {
		sum.Evictions += t.Evictions()
	}
	sum.Evictions += stall.Collapses() + score.Collapses()
	if includeSketches {
		sk := &SummarySketches{Levels: make(map[string]TopKState, len(Levels))}
		for i, name := range Levels {
			sk.Levels[name] = tops[i].State()
		}
		sk.Stall = stall.State()
		sk.Score = score.State()
		sum.Sketches = sk
	}
	sum.Headline = headline(&sum)
	return sum
}

func copyCounts(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func addCounts(dst, src map[string]uint64) {
	for k, v := range src {
		dst[k] += v
	}
}

func renderQuantiles(q *Quantile) Quantiles {
	return Quantiles{
		Count: q.Count(),
		P50:   q.Query(0.50),
		P90:   q.Query(0.90),
		P99:   q.Query(0.99),
		Max:   q.Max(),
	}
}

func filterHitters(hs []HeavyHitter, prefix string) []HeavyHitter {
	if prefix == "" {
		return hs
	}
	out := hs[:0:0]
	for _, h := range hs {
		if len(h.Key) >= len(prefix) && h.Key[:len(prefix)] == prefix {
			out = append(out, h)
		}
	}
	return out
}

// headline renders the one-line operator view of a summary.
func headline(sum *Summary) string {
	topType, topTypeN := topCount(sum.ByType)
	culprit := ""
	for _, lvl := range []string{"switch", "port", "pod", "fabric"} {
		if hs := sum.TopLevels[lvl]; len(hs) > 0 {
			culprit = fmt.Sprintf(", top %s %s (%d)", lvl, hs[0].Key, hs[0].Count)
			break
		}
	}
	state := "open"
	if sum.Closed {
		state = "closed"
	}
	if topType == "" {
		return fmt.Sprintf("[%s - %s] %s: no incidents", sum.Start, sum.End, state)
	}
	return fmt.Sprintf("[%s - %s] %s: %d incidents, mostly %s (%d)%s",
		sum.Start, sum.End, state, sum.Records, topType, topTypeN, culprit)
}

// topCount returns the highest-count key in m (smallest key on ties).
func topCount(m map[string]uint64) (string, uint64) {
	var bestK string
	var bestV uint64
	for k, v := range m {
		if v > bestV || (v == bestV && bestV > 0 && k < bestK) {
			bestK, bestV = k, v
		}
	}
	return bestK, bestV
}
