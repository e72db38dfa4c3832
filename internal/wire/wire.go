// Package wire implements the framing the Hawkeye analyzer speaks over
// TCP: length-prefixed typed messages carrying the handshake (topology +
// telemetry parameters), binary telemetry reports, and diagnosis
// requests/replies. The framing is deliberately simple — 4-byte length,
// 1-byte type — so partial reads, oversize frames and unknown types are
// all easy to reason about and test.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hawkeye/internal/packet"
	"hawkeye/internal/topo"
)

// MsgType identifies a frame.
type MsgType uint8

const (
	// MsgHello opens a session: JSON Hello payload.
	MsgHello MsgType = 1
	// MsgHelloOK acknowledges the handshake (empty payload).
	MsgHelloOK MsgType = 2
	// MsgReport carries one switch telemetry report (binary encoding).
	MsgReport MsgType = 3
	// MsgDiagnose asks for a diagnosis: the victim 5-tuple, the trigger
	// time and, optionally, the victim's declared path.
	MsgDiagnose MsgType = 4
	// MsgDiagnosis is the reply: JSON Diagnosis payload.
	MsgDiagnosis MsgType = 5
	// MsgError reports a server-side failure: UTF-8 text payload.
	MsgError MsgType = 6
	// Types 7 and 8 are retired: they were a session-scoped incident
	// grouping verb and its reply, superseded by MsgQueryIncidents. They
	// stay unused so an old peer's frame is refused, not misread.
	// MsgQueryIncidents asks the fleet store for clustered incidents:
	// JSON IncidentQuery payload.
	MsgQueryIncidents MsgType = 9
	// MsgIncidentMatches is the reply: JSON array of FleetIncident.
	MsgIncidentMatches MsgType = 10
	// MsgSubscribe turns the session into a live incident tail: JSON
	// SubscribeRequest payload.
	MsgSubscribe MsgType = 11
	// MsgSubscribeOK acknowledges a subscription (empty payload).
	MsgSubscribeOK MsgType = 12
	// MsgIncidentEvent is one pushed incident lifecycle transition:
	// JSON IncidentEvent payload.
	MsgIncidentEvent MsgType = 13
	// MsgThrottle is the backpressure reply an overloaded analyzer
	// returns instead of serving a sheddable request: JSON Throttle
	// payload. Clients honor it with their existing backoff.
	MsgThrottle MsgType = 14
	// MsgHealth asks for the server's lifecycle state and load counters
	// (empty payload); any session kind may send it.
	MsgHealth MsgType = 15
	// MsgHealthReply is the answer: JSON Health payload.
	MsgHealthReply MsgType = 16
	// MsgShutdown is the terminal event a draining server pushes to
	// subscribed sessions before closing them (empty payload).
	MsgShutdown MsgType = 17
	// MsgQueryRollups asks for windowed rollup summaries: JSON
	// RollupQuery payload.
	MsgQueryRollups MsgType = 18
	// MsgRollupList is the reply: JSON RollupResult payload.
	MsgRollupList MsgType = 19
	// MsgSubscribeRollups turns the session into a live rollup tail:
	// JSON RollupSubscribeRequest payload (acked with MsgSubscribeOK).
	MsgSubscribeRollups MsgType = 20
	// MsgRollupEvent is one pushed rollup window transition: JSON
	// RollupEvent payload.
	MsgRollupEvent MsgType = 21
	// MsgReplicate turns the session into a shard-to-shard replication
	// stream: JSON ReplicateRequest payload. The server answers with a
	// MsgReplSnapshot or a run of MsgReplRecord frames (catch-up), then
	// keeps streaming records as they are admitted.
	MsgReplicate MsgType = 22
	// MsgReplSnapshot carries a full store snapshot to a follower:
	// binary 8-byte covered seq + snapshot payload.
	MsgReplSnapshot MsgType = 23
	// MsgReplRecord is one replicated admission: binary 8-byte seq +
	// the record's WAL payload (JSON).
	MsgReplRecord MsgType = 24
	// MsgReplAck is the follower's durability watermark: JSON ReplAck
	// payload. The primary uses it to report replication lag.
	MsgReplAck MsgType = 25
	// MsgShardInfo asks a cluster shard for its routing identity and
	// replication health (empty payload).
	MsgShardInfo MsgType = 26
	// MsgShardInfoReply is the answer: JSON ShardInfo payload.
	MsgShardInfoReply MsgType = 27
	// MsgWriteRecord routes one fabric ingest record to a shard primary:
	// JSON WriteRequest payload. Carries the writer's idempotency
	// sequence and its view of the shard epoch; answered with
	// MsgWriteAck, MsgFence, or MsgError.
	MsgWriteRecord MsgType = 28
	// MsgWriteAck acknowledges a routed write after it is durable (and,
	// under semi-sync, replicated): JSON WriteAck payload.
	MsgWriteAck MsgType = 29
	// MsgFence is the typed fencing refusal: JSON FenceInfo payload. A
	// demoted (fenced) shard, or one that no longer owns the fabric,
	// answers writes and replication requests with it instead of acking.
	MsgFence MsgType = 30
	// MsgEpoch announces a shard epoch: JSON EpochAnnounce payload. Sent
	// primary→follower at stream start and on bumps (the follower
	// mirrors it durably so promotion can exceed it), and client→server
	// by writers/front doors so a stale primary learns it has been
	// superseded. The server acks with MsgFence (its own epoch + fenced
	// state).
	MsgEpoch MsgType = 31
	// MsgQueryRecords asks a shard for a fabric's raw record stream (the
	// reshard copy source): JSON RecordQuery payload.
	MsgQueryRecords MsgType = 32
	// MsgRecordList is the reply: JSON RecordDump payload.
	MsgRecordList MsgType = 33
	// MsgCutover executes one side of a reshard cutover: JSON
	// CutoverRequest payload ("release" purges the fabric at the old
	// owner, "adopt" finalizes it at the new one); both bump the shard
	// epoch.
	MsgCutover MsgType = 34
	// MsgCutoverOK is the reply: JSON CutoverReply payload.
	MsgCutoverOK MsgType = 35
	// MsgHostReport carries one host-agent counter snapshot (binary
	// telemetry.HostReport encoding): the endpoint-side evidence for
	// host-vs-network PFC attribution.
	MsgHostReport MsgType = 36
)

// Known reports whether t is a frame type this protocol version
// defines (retired types are not). Readers skip unknown types instead
// of failing the session, so a newer peer can add frames without
// breaking older tails.
func Known(t MsgType) bool { return int(t) < len(payloadCaps) && payloadCaps[t] != 0 }

// MaxFrame bounds a frame body; a full fat-tree telemetry report is tens
// of KB, the topology spec of a large pod a few hundred KB.
const MaxFrame = 8 << 20

// ProtocolVersion is bumped on incompatible changes.
const ProtocolVersion = 1

// ErrFrameTooLarge reports an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Hello is the session handshake: everything the analyzer needs to build
// provenance graphs for this fabric.
type Hello struct {
	Version int             `json:"version"`
	Topo    json.RawMessage `json:"topo,omitempty"` // topo.Spec; absent on operator sessions
	// EpochNS is the telemetry epoch length in nanoseconds.
	EpochNS int64 `json:"epochNs"`
	// Fabric names the reporting fabric in the analyzer's fleet store.
	// Empty means the default fabric. An empty Topo marks an operator
	// session: no reports or diagnoses, only fleet queries and
	// subscriptions (EpochNS is then ignored).
	Fabric string `json:"fabric,omitempty"`
}

// Diagnosis is the analyzer's reply.
type Diagnosis struct {
	Type string `json:"type"`
	// CauseKind is the primary cause class (flow contention / injection /
	// spreading).
	CauseKind string `json:"causeKind"`
	// InitialNode/InitialPort name the initial congestion point.
	InitialNode int `json:"initialNode"`
	InitialPort int `json:"initialPort"`
	// Culprits are the root-cause flows, if any.
	Culprits []string `json:"culprits,omitempty"`
	// Rendered is the human-readable diagnosis report.
	Rendered string `json:"rendered"`
	// Switches counts the telemetry reports used.
	Switches int `json:"switches"`
	// Confidence grades the evidence behind the conclusion (low / medium
	// / high); Score is the underlying [0,1] value.
	Confidence string  `json:"confidence,omitempty"`
	Score      float64 `json:"score,omitempty"`
	// Missing lists the evidence gaps that degraded the confidence.
	Missing []string `json:"missing,omitempty"`
}

// IncidentQuery filters the fleet store. Zero values mean "any", except
// Node where -1 is the wildcard (0 is a real node ID).
type IncidentQuery struct {
	Fabric string `json:"fabric,omitempty"`
	// Type is the anomaly type string (AnomalyType.String()); empty
	// matches all.
	Type string `json:"type,omitempty"`
	Node int    `json:"node"`
	// FromNS/ToNS bound the incident span; ToNS == 0 is unbounded.
	FromNS int64 `json:"fromNs,omitempty"`
	ToNS   int64 `json:"toNs,omitempty"`
	Limit  int   `json:"limit,omitempty"`
}

// FleetIncident is one clustered fleet incident in a query reply or a
// pushed event.
type FleetIncident struct {
	ID         uint64   `json:"id"`
	Type       string   `json:"type"`
	Node       int      `json:"node"`
	FirstNS    int64    `json:"firstNs"`
	LastNS     int64    `json:"lastNs"`
	Complaints int      `json:"complaints"`
	Victims    []string `json:"victims,omitempty"`
	Fabrics    []string `json:"fabrics,omitempty"`
	Culprits   []string `json:"culprits,omitempty"`
	Resolved   bool     `json:"resolved,omitempty"`
	// Summary is the operator one-liner.
	Summary string `json:"summary"`
	// Constant/Varying are the attribute partition: dimensions shared
	// by every complaint vs. dimensions that spread.
	Constant map[string]string   `json:"constant,omitempty"`
	Varying  map[string][]string `json:"varying,omitempty"`
}

// Throttle is the payload of a MsgThrottle backpressure reply: the
// request was shed by the named tier; retry after the given delay.
type Throttle struct {
	// Tier names what was shed: "subscriptions" or "queries".
	Tier string `json:"tier"`
	// RetryAfterMs suggests when to retry.
	RetryAfterMs int64 `json:"retryAfterMs"`
}

// Health is the payload of a MsgHealthReply: the server's lifecycle
// state plus the load and shed counters an operator needs to judge it.
type Health struct {
	// State is the lifecycle phase: starting, replaying, serving,
	// draining or stopped.
	State string `json:"state"`
	// Durable reports whether the fleet store writes a WAL.
	Durable bool `json:"durable"`
	// Load is the ingest queue fill fraction in [0,1].
	Load      float64 `json:"load"`
	Sessions  int     `json:"sessions"`
	Diagnoses int     `json:"diagnoses"`
	// Ingested/Dropped/OpenIncidents mirror the fleet store counters.
	Ingested      uint64 `json:"ingested"`
	Dropped       uint64 `json:"dropped"`
	OpenIncidents int    `json:"openIncidents"`
	// ShedSubscriptions/ShedQueries count requests refused per tier.
	ShedSubscriptions uint64 `json:"shedSubscriptions"`
	ShedQueries       uint64 `json:"shedQueries"`
	// WALErrors counts records that failed to reach the log.
	WALErrors uint64 `json:"walErrors,omitempty"`
	// Rollup summarizer gauges: windows open / closed, accuracy-losing
	// sketch evictions, accounted bytes in use, and rollup
	// subscriptions refused under load.
	RollupWindowsOpen   int    `json:"rollupWindowsOpen,omitempty"`
	RollupWindowsClosed uint64 `json:"rollupWindowsClosed,omitempty"`
	RollupEvictions     uint64 `json:"rollupEvictions,omitempty"`
	RollupBytes         int    `json:"rollupBytes,omitempty"`
	ShedRollups         uint64 `json:"shedRollups,omitempty"`
}

// SubscribeRequest filters a live incident subscription; semantics
// match IncidentQuery (Node -1 = any).
type SubscribeRequest struct {
	Fabric string `json:"fabric,omitempty"`
	Type   string `json:"type,omitempty"`
	Node   int    `json:"node"`
}

// IncidentEvent is one pushed lifecycle transition.
type IncidentEvent struct {
	// Kind is "opened", "grew" or "resolved".
	Kind     string        `json:"kind"`
	Incident FleetIncident `json:"incident"`
}

// RollupQuery selects rollup windows from the analyzer's summarizer.
// Zero values mean "all": Windows <= 0 returns every retained window,
// Sliding <= 0 skips the merged view, Level/Prefix empty return the
// full hierarchy.
type RollupQuery struct {
	// Windows bounds how many of the most recent windows are returned.
	Windows int `json:"windows,omitempty"`
	// Sliding additionally merges the last Sliding windows into one.
	Sliding int `json:"sliding,omitempty"`
	// Level restricts heavy hitters to one hierarchy level ("fabric",
	// "pod", "switch", "port").
	Level string `json:"level,omitempty"`
	// Prefix restricts heavy-hitter keys to a path prefix, the
	// drill-down handle (e.g. "fabA/pod2").
	Prefix string `json:"prefix,omitempty"`
	// ClosedOnly excludes still-open windows.
	ClosedOnly bool `json:"closedOnly,omitempty"`
	// IncludeSketches attaches mergeable sketch state to each window, so
	// a front door can combine same-window summaries from several shards.
	IncludeSketches bool `json:"includeSketches,omitempty"`
}

// RollupHitter is one heavy-hitter entry: Count overestimates the true
// count by at most Err.
type RollupHitter struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// RollupQuantiles is a rendered quantile-sketch snapshot.
type RollupQuantiles struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// RollupSummary is one rendered rollup window.
type RollupSummary struct {
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
	Closed  bool   `json:"closed"`
	Records uint64 `json:"records"`
	// ByType/ByCause/ByConfidence count records per diagnosis attribute.
	ByType       map[string]uint64 `json:"byType,omitempty"`
	ByCause      map[string]uint64 `json:"byCause,omitempty"`
	ByConfidence map[string]uint64 `json:"byConfidence,omitempty"`
	// Top holds the heavy hitters per hierarchy level.
	Top map[string][]RollupHitter `json:"top,omitempty"`
	// StallNS/Score summarize stall-duration and confidence-score
	// distributions.
	StallNS RollupQuantiles `json:"stallNs"`
	Score   RollupQuantiles `json:"score"`
	// Bytes/Evictions report the window's accounted footprint and its
	// accuracy-losing sketch events.
	Bytes     int    `json:"bytes"`
	Evictions uint64 `json:"evictions,omitempty"`
	// Headline is the one-line operator rendering.
	Headline string `json:"headline,omitempty"`
	// Sketches carries the window's mergeable sketch state
	// (rollup.SummarySketches) when the query asked for it. Kept opaque
	// here: wire stays dependency-free and the importer validates.
	Sketches json.RawMessage `json:"sketches,omitempty"`
}

// RollupResult is the MsgRollupList reply.
type RollupResult struct {
	Windows []RollupSummary `json:"windows,omitempty"`
	// Sliding is the merged view of the most recent windows, when the
	// query asked for one.
	Sliding *RollupSummary `json:"sliding,omitempty"`
}

// RollupSubscribeRequest configures a live rollup subscription.
type RollupSubscribeRequest struct {
	// ClosedOnly suppresses opened/updated events, delivering only
	// final window summaries.
	ClosedOnly bool `json:"closedOnly,omitempty"`
}

// RollupEvent is one pushed rollup window transition.
type RollupEvent struct {
	// Kind is "opened", "updated" or "closed".
	Kind    string        `json:"kind"`
	Summary RollupSummary `json:"summary"`
}

// ReplicateRequest turns a session into a replication stream: the
// follower asks for every admission after FromSeq. FromSeq 0 means
// "from the beginning" — the primary answers with its latest snapshot
// plus the WAL delta. A non-zero FromSeq the primary can no longer
// serve contiguously (compacted away) also falls back to a snapshot.
type ReplicateRequest struct {
	// FromSeq is the highest sequence the follower holds durably.
	FromSeq uint64 `json:"fromSeq"`
	// Epoch is the highest shard epoch the follower has durably
	// mirrored (0 = none yet). A primary that sees an epoch above its
	// own has been superseded and demotes itself instead of serving
	// the stream.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplAck is the follower's durability watermark: every record with
// Seq <= Seq has been written to the follower's own log.
type ReplAck struct {
	Seq uint64 `json:"seq"`
	// Epoch is the follower's durably mirrored shard epoch, so the
	// primary can report primary/follower epoch agreement.
	Epoch uint64 `json:"epoch,omitempty"`
}

// WriteRequest routes one ingest record to a shard primary.
type WriteRequest struct {
	// Fabric names the record's fabric; must match the embedded record.
	Fabric string `json:"fabric"`
	// OriginSeq is the writer's per-fabric idempotency sequence. The
	// store refuses re-admission at or below its per-fabric watermark,
	// so a resend after a lost ack is a no-op (acked Duplicate).
	OriginSeq uint64 `json:"originSeq"`
	// Epoch is the highest epoch the writer has observed for the target
	// shard (0 = unknown). A primary seeing a higher epoch than its own
	// fences itself.
	Epoch uint64 `json:"epoch,omitempty"`
	// Record is the fleetstore record JSON (store field names).
	Record json.RawMessage `json:"record"`
}

// WriteAck acknowledges a routed write.
type WriteAck struct {
	// Seq is the store sequence the record was admitted at (0 when
	// Duplicate).
	Seq uint64 `json:"seq,omitempty"`
	// OriginSeq echoes the request's idempotency sequence.
	OriginSeq uint64 `json:"originSeq"`
	// Epoch is the shard's current epoch; writers cache the highest
	// they have seen and carry it on future requests.
	Epoch uint64 `json:"epoch"`
	// Duplicate marks an idempotent resend: the record was already
	// admitted (and acked durably) under this OriginSeq.
	Duplicate bool `json:"duplicate,omitempty"`
}

// FenceInfo is the typed fencing refusal and the MsgEpoch ack.
type FenceInfo struct {
	// Shard names the answering shard.
	Shard string `json:"shard,omitempty"`
	// Epoch is the shard's own current epoch.
	Epoch uint64 `json:"epoch"`
	// Observed is the highest epoch the shard has seen for itself; when
	// it exceeds Epoch the shard is fenced.
	Observed uint64 `json:"observed,omitempty"`
	// Fenced reports that the shard has demoted itself: it no longer
	// acks writes or serves replication.
	Fenced bool `json:"fenced,omitempty"`
	// Moved reports the refusal is about fabric ownership, not epochs:
	// Fabric has been resharded away from this shard.
	Moved  bool   `json:"moved,omitempty"`
	Fabric string `json:"fabric,omitempty"`
}

// EpochAnnounce carries one shard's epoch to a peer.
type EpochAnnounce struct {
	Shard string `json:"shard"`
	Epoch uint64 `json:"epoch"`
}

// RecordQuery asks for a fabric's raw records (the reshard copy
// source). Fabric is required; Limit 0 returns all retained records.
type RecordQuery struct {
	Fabric string `json:"fabric"`
	Limit  int    `json:"limit,omitempty"`
}

// RecordDump is the MsgRecordList reply: the fabric's retained records
// in (At, Seq) order, each in store JSON form.
type RecordDump struct {
	Fabric  string            `json:"fabric"`
	Records []json.RawMessage `json:"records,omitempty"`
}

// Cutover operations.
const (
	// CutoverFreeze seals the fabric at the old owner before the copy:
	// admission is refused (Moved fence) from this point on, so the
	// record set the executor dumps is final — a write racing the
	// freeze either lands before it (and is dumped) or is refused and
	// re-routed by its writer. The seal is in-memory: if the executor
	// dies the fabric thaws with the shard, and the aborted reshard is
	// re-run from the freeze.
	CutoverFreeze = "freeze"
	// CutoverRelease purges the fabric at the old owner: its records
	// are dropped (a durable tombstone replays the purge on recovery),
	// future writes for the fabric are refused with a Moved fence, and
	// the shard epoch is bumped.
	CutoverRelease = "release"
	// CutoverAdopt finalizes the fabric at the new owner: copied
	// records are folded into the rollup state and the shard epoch is
	// bumped.
	CutoverAdopt = "adopt"
)

// CutoverRequest executes one side of a reshard cutover.
type CutoverRequest struct {
	Fabric string `json:"fabric"`
	// Op is CutoverFreeze, CutoverRelease or CutoverAdopt.
	Op string `json:"op"`
}

// CutoverReply reports the cutover's outcome.
type CutoverReply struct {
	// Epoch is the shard's epoch after the bump.
	Epoch uint64 `json:"epoch"`
	// Purged counts records dropped by a release.
	Purged int `json:"purged,omitempty"`
}

// ShardInfo is a shard's routing identity and replication health.
type ShardInfo struct {
	// Shard is the instance's stable identity on the consistent-hash
	// ring (e.g. "shard-0"). Empty for an unclustered analyzer.
	Shard string `json:"shard,omitempty"`
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Seq is the highest sequence the shard has admitted.
	Seq uint64 `json:"seq"`
	// FollowerSeq is the highest sequence a connected follower has
	// acked; 0 when no follower is attached.
	FollowerSeq uint64 `json:"followerSeq,omitempty"`
	// Lag is Seq - FollowerSeq when a follower is attached.
	Lag uint64 `json:"lag,omitempty"`
	// LastSnapshotSeq is the sequence covered by the newest on-disk
	// snapshot.
	LastSnapshotSeq uint64 `json:"lastSnapshotSeq,omitempty"`
	// Replicas counts attached replication streams.
	Replicas int `json:"replicas,omitempty"`
	// Epoch is the shard's current fencing epoch (monotone across
	// promotions and cutovers).
	Epoch uint64 `json:"epoch,omitempty"`
	// FollowerEpoch is the epoch the attached follower last reported
	// durably mirrored; 0 when no follower has acked yet. Disagreement
	// with Epoch means the standby would promote into a stale epoch.
	FollowerEpoch uint64 `json:"followerEpoch,omitempty"`
	// Fenced reports the shard has observed a higher epoch for itself
	// and demoted: it still serves reads but refuses writes.
	Fenced bool `json:"fenced,omitempty"`
}

// WriteFrame emits one frame. Per-type payload caps are enforced on the
// write side too, so a peer that would be rejected fails loudly at the
// source instead of poisoning the session.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	if err := checkCap(t, len(payload)); err != nil {
		return err
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: frame body: %w", err)
	}
	return nil
}

// ReadFrame consumes one frame. io.EOF at a clean frame boundary is
// returned as-is; EOF mid-frame becomes ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	// Per-type caps are checked before the body is allocated: a hostile
	// header claiming 8 MiB behind a 21-byte message type never costs
	// more than the 5 bytes already read.
	if err := checkCap(MsgType(hdr[4]), int(n)); err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	return MsgType(hdr[4]), payload, nil
}

// WriteJSON marshals v and emits it as a frame of type t.
func WriteJSON(w io.Writer, t MsgType, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encode %T: %w", v, err)
	}
	return WriteFrame(w, t, data)
}

// MaxDeclaredPath bounds the victim path a MsgDiagnose may declare.
const MaxDeclaredPath = 16

// diagnoseHead is the part of a MsgDiagnose every shape carries: the
// victim 5-tuple and the trigger time.
const diagnoseHead = packet.FiveTupleLen + 8

// EncodeDiagnoseRequest serializes the victim 5-tuple, the trigger time
// in nanoseconds (used by the incident grouping; 0 if unknown) and,
// optionally, the switches the victim's path crossed — at most
// MaxDeclaredPath of them, each once. A request without a path is 21
// bytes and leaves the analyzer's switch expectation unknown.
func EncodeDiagnoseRequest(victim packet.FiveTuple, atNS int64, path ...topo.NodeID) []byte {
	b, _ := victim.MarshalBinary() // cannot fail: fixed-size layout
	b = binary.BigEndian.AppendUint64(b, uint64(atNS))
	if len(path) > 0 {
		b = append(b, byte(len(path)))
		for _, sw := range path {
			b = binary.BigEndian.AppendUint32(b, uint32(sw))
		}
	}
	return b
}

// EncodeReplRecord serializes one replicated admission: 8-byte
// big-endian sequence followed by the record's WAL payload, byte-for-
// byte what the primary appended to its own log, so the follower's log
// replays through the same decoder.
func EncodeReplRecord(seq uint64, payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(b, seq)
	copy(b[8:], payload)
	return b
}

// DecodeReplRecord splits a MsgReplRecord payload. The returned slice
// aliases b.
func DecodeReplRecord(b []byte) (seq uint64, payload []byte, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: repl record payload is %d bytes, want >= 8", ErrBadRequest, len(b))
	}
	seq = binary.BigEndian.Uint64(b)
	if seq == 0 {
		return 0, nil, fmt.Errorf("%w: repl record sequence 0", ErrBadRequest)
	}
	if len(b) == 8 {
		return 0, nil, fmt.Errorf("%w: repl record with empty body", ErrBadRequest)
	}
	return seq, b[8:], nil
}

// EncodeReplSnapshot serializes a shipped snapshot: 8-byte big-endian
// covered sequence followed by the snapshot payload (the same bytes
// wal.WriteSnapshot persists).
func EncodeReplSnapshot(seq uint64, payload []byte) []byte {
	return EncodeReplRecord(seq, payload)
}

// DecodeReplSnapshot splits a MsgReplSnapshot payload. Unlike a record,
// a snapshot may legitimately cover seq 0 (an empty store) and carry an
// empty body is still invalid — the store always exports at least its
// JSON envelope.
func DecodeReplSnapshot(b []byte) (seq uint64, payload []byte, err error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("%w: repl snapshot payload is %d bytes, want >= 8", ErrBadRequest, len(b))
	}
	seq = binary.BigEndian.Uint64(b)
	if len(b) == 8 {
		return 0, nil, fmt.Errorf("%w: repl snapshot with empty body", ErrBadRequest)
	}
	return seq, b[8:], nil
}

// ErrBadRequest reports a malformed request payload.
var ErrBadRequest = errors.New("wire: malformed request")

// DecodeDiagnoseRequest parses a MsgDiagnose payload. It has exactly two
// shapes: the 21-byte tuple and time, or those followed by a 1-byte
// count n (1..MaxDeclaredPath) and n big-endian uint32 switch IDs. Any
// other length is rejected: trailing garbage means a corrupted or
// hostile frame, not a newer client. Whether the IDs name switches is
// the Validator's to check.
func DecodeDiagnoseRequest(b []byte) (packet.FiveTuple, int64, []topo.NodeID, error) {
	var ft packet.FiveTuple
	n := 0
	if len(b) > diagnoseHead {
		n = int(b[diagnoseHead])
	}
	if len(b) < diagnoseHead || (len(b) > diagnoseHead && (n == 0 || n > MaxDeclaredPath || len(b) != diagnoseHead+1+4*n)) {
		return ft, 0, nil, fmt.Errorf("%w: %d-byte diagnose payload, want %d, or %d plus a count of 1 to %d and that many switch IDs",
			ErrBadRequest, len(b), diagnoseHead, diagnoseHead, MaxDeclaredPath)
	}
	_ = ft.UnmarshalBinary(b) // cannot fail: the length is checked
	var path []topo.NodeID
	for i := 0; i < n; i++ {
		path = append(path, topo.NodeID(binary.BigEndian.Uint32(b[diagnoseHead+1+4*i:])))
	}
	return ft, int64(binary.BigEndian.Uint64(b[packet.FiveTupleLen:])), path, nil
}
