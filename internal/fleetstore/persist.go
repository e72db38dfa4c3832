package fleetstore

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"hawkeye/internal/topo"
)

// Persistence formats. WAL entries carry one Record each (JSON — a few
// hundred bytes; the group-commit batching, not the codec, is what the
// ingest hot path feels). Snapshots carry the full store state: the
// retained ring entries, the clusterer's open and resolved incidents
// with their refcounted distinct-value sets, and the counters, so a
// restore is a structural copy rather than a re-clustering.

func walDir(dir string) string { return filepath.Join(dir, "wal") }

func encodeRecord(rec *Record) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("fleetstore: encode record: %w", err)
	}
	return data, nil
}

func decodeRecord(payload []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("fleetstore: decode record: %w", err)
	}
	return rec, nil
}

// persistedState is the snapshot payload.
type persistedState struct {
	Seq       uint64           `json:"seq"`
	NextID    uint64           `json:"nextId"`
	Opened    uint64           `json:"opened"`
	Ingested  uint64           `json:"ingested"`
	Evicted   uint64           `json:"evicted"`
	Watermark int64            `json:"watermark"`
	Entries   []persistedEntry `json:"entries"`
	Open      []persistedOpen  `json:"open"`
	Resolved  []Incident       `json:"resolved"`
	// OriginHigh is the per-fabric writer-idempotency watermark. It must
	// be persisted, not rederived from Entries: eviction can drop the
	// record holding a fabric's maximum OriginSeq, and a rebuilt
	// watermark that regressed would re-admit a duplicate after restart.
	OriginHigh map[string]uint64 `json:"originHigh,omitempty"`
	// MovedOut lists fabrics resharded away from this store.
	MovedOut []string `json:"movedOut,omitempty"`
}

type persistedEntry struct {
	Inc uint64 `json:"inc"`
	Rec Record `json:"rec"`
}

// persistedOpen is one open incident with its live refcounts.
type persistedOpen struct {
	Incident Incident                  `json:"incident"`
	Victims  map[string]int            `json:"victims"`
	Fabrics  map[string]int            `json:"fabrics"`
	Culprits map[string]int            `json:"culprits,omitempty"`
	Attrs    map[string]map[string]int `json:"attrs,omitempty"`
	Loop     []topo.PortRef            `json:"loop,omitempty"`
}

// exportState serializes the full store state. The caller (Checkpoint)
// holds the admission gate, so this is a consistent cut.
func (st *Store) exportState() ([]byte, error) {
	ps := persistedState{
		Seq:       st.seq.Load(),
		Ingested:  st.ingested.Load(),
		Evicted:   st.evicted.Load(),
		Watermark: st.lastAt.Load(),
	}
	var entries []entry
	for i := range st.shards {
		entries = st.shards[i].export(entries)
	}
	// Seq order: restore re-inserts in admission order, so a restore
	// into a differently-sharded config still evicts oldest-first.
	sort.Slice(entries, func(i, j int) bool { return entries[i].rec.Seq < entries[j].rec.Seq })
	ps.Entries = make([]persistedEntry, len(entries))
	for i, e := range entries {
		ps.Entries[i] = persistedEntry{Inc: e.inc, Rec: e.rec}
	}

	st.cl.mu.Lock()
	ps.NextID = st.cl.nextID
	for _, oi := range st.cl.open {
		ps.Open = append(ps.Open, persistedOpen{
			Incident: oi.inc,
			Victims:  oi.victims,
			Fabrics:  oi.fabrics,
			Culprits: oi.culprit,
			Attrs:    oi.attrSeen,
			Loop:     oi.loop,
		})
	}
	ps.Resolved = append(ps.Resolved, st.cl.resolved...)
	st.cl.mu.Unlock()
	ps.Opened = st.cl.opened.Load()

	st.originMu.Lock()
	if len(st.originHigh) > 0 {
		ps.OriginHigh = make(map[string]uint64, len(st.originHigh))
		for f, hi := range st.originHigh {
			ps.OriginHigh[f] = hi
		}
	}
	for f := range st.movedOut {
		ps.MovedOut = append(ps.MovedOut, f)
	}
	st.originMu.Unlock()
	sort.Strings(ps.MovedOut)

	data, err := json.Marshal(&ps)
	if err != nil {
		return nil, fmt.Errorf("fleetstore: encode snapshot: %w", err)
	}
	return data, nil
}

// restore loads a snapshot payload into a freshly built store (Open
// calls it before WAL replay, before any concurrency exists).
func (st *Store) restore(payload []byte) error {
	var ps persistedState
	if err := json.Unmarshal(payload, &ps); err != nil {
		return fmt.Errorf("fleetstore: decode snapshot: %w", err)
	}
	st.seq.Store(ps.Seq)
	st.ingested.Store(ps.Ingested)
	st.evicted.Store(ps.Evicted)
	st.lastAt.Store(ps.Watermark)

	open := make([]*openIncident, 0, len(ps.Open))
	for i := range ps.Open {
		po := &ps.Open[i]
		oi := &openIncident{
			inc:      po.Incident,
			victims:  po.Victims,
			fabrics:  po.Fabrics,
			culprit:  po.Culprits,
			attrSeen: po.Attrs,
			loop:     po.Loop,
		}
		if oi.victims == nil {
			oi.victims = make(map[string]int)
		}
		if oi.fabrics == nil {
			oi.fabrics = make(map[string]int)
		}
		if oi.culprit == nil {
			oi.culprit = make(map[string]int)
		}
		if oi.attrSeen == nil {
			oi.attrSeen = make(map[string]map[string]int)
		}
		open = append(open, oi)
	}
	st.cl.restoreState(open, ps.Resolved, ps.NextID, ps.Opened)

	st.originMu.Lock()
	for f, hi := range ps.OriginHigh {
		if hi > st.originHigh[f] {
			st.originHigh[f] = hi
		}
	}
	for _, f := range ps.MovedOut {
		st.movedOut[f] = struct{}{}
	}
	st.originMu.Unlock()

	// Re-insert retained records in admission order. Cluster state came
	// from the snapshot, so this only rebuilds the rings — including
	// evicting (with membership withdrawal) if the new config retains
	// less than the snapshot held. The observer sees each record again
	// so observer-side state (rollup windows) recovers with the store;
	// WAL entries past the snapshot flow through insert as usual.
	//
	// Admission order is not trigger-time order once a reshard copy has
	// landed (copies carry old trigger times behind newer records), and
	// a snapshot taken after the adopt holds no control record to force
	// a rebuild on replay. The observer is therefore rebuilt once, in
	// trigger-time order, after the rings are back.
	for i := range ps.Entries {
		pe := &ps.Entries[i]
		st.noteOrigin(&pe.Rec)
		if old, evicted := st.shardFor(pe.Rec.Fabric, pe.Rec.At).add(entry{rec: pe.Rec, inc: pe.Inc}, st.cfg.ShardCapacity); evicted {
			st.evicted.Add(1)
			st.cl.evict(old.inc, &old.rec)
		}
	}
	st.rebuildObserver()
	return nil
}
