package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"hawkeye/internal/telemetry"
	"hawkeye/internal/topo"
)

// This file is the admission side of the protocol: everything a frame
// must satisfy beyond "the length prefix was readable". The controller
// ingests frames from every switch CPU and host agent in the fabric, so
// one corrupted or adversarial peer must be containable per session —
// payload caps bound what a frame may claim to carry before the body is
// even allocated, and the Validator bounds what a decoded telemetry
// report may claim about the fabric before provenance construction
// trusts it.

// Payload caps per message type. Client->server verbs (the hostile
// direction) are tight: a MsgDiagnose is a 13-byte 5-tuple, an 8-byte
// timestamp and an optional declared path of at most MaxDeclaredPath
// 4-byte switch IDs, and has no business approaching MaxFrame.
// Server->client replies stay generous — incident lists and rendered
// diagnoses legitimately grow with the fabric.
const (
	capEmpty   = 64       // nominally empty verbs; slack for future fields
	capRequest = 64 << 10 // JSON request verbs (queries, subscriptions)
	capHello   = 2 << 20  // topology spec of a large pod is a few hundred KB
	capError   = 16 << 10 // error text
	// capRollupEvent bounds one pushed window summary: sketch sizes are
	// capped server-side, so a rendered summary is a few KB and a frame
	// approaching MaxFrame is corrupt, not big.
	capRollupEvent = 256 << 10
	// capReplRecord bounds one replicated admission: an 8-byte seq plus
	// one JSON store record — a few hundred bytes normally, a few KB
	// with a long culprit list. 64 KiB is corruption, not a record.
	capReplRecord = 64 << 10
	// capHostReport bounds one host-agent counter snapshot: the record is
	// a fixed 64-byte register dump, so even with format growth a frame
	// beyond a few hundred bytes is hostile, not telemetry.
	capHostReport = 256
	// capDiagnose fits the longest MsgDiagnose: tuple, time, count byte
	// and MaxDeclaredPath switch IDs (86 bytes).
	capDiagnose = diagnoseHead + 1 + 4*MaxDeclaredPath
)

// payloadCaps maps each known message type to its maximum payload size.
var payloadCaps = [...]int{
	MsgHello:            capHello,
	MsgHelloOK:          capEmpty,
	MsgReport:           MaxFrame,
	MsgDiagnose:         capDiagnose,
	MsgDiagnosis:        MaxFrame,
	MsgError:            capError,
	MsgQueryIncidents:   capRequest,
	MsgIncidentMatches:  MaxFrame,
	MsgSubscribe:        capRequest,
	MsgSubscribeOK:      capEmpty,
	MsgIncidentEvent:    MaxFrame,
	MsgThrottle:         capRequest,
	MsgHealth:           capEmpty,
	MsgHealthReply:      capRequest,
	MsgShutdown:         capEmpty,
	MsgQueryRollups:     capRequest,
	MsgRollupList:       MaxFrame,
	MsgSubscribeRollups: capRequest,
	MsgRollupEvent:      capRollupEvent,
	MsgReplicate:        capRequest,
	MsgReplSnapshot:     MaxFrame, // a snapshot is the full store state
	MsgReplRecord:       capReplRecord,
	MsgReplAck:          capRequest,
	MsgShardInfo:        capEmpty,
	MsgShardInfoReply:   capRequest,
	MsgWriteRecord:      capReplRecord, // one routed record + its envelope
	MsgWriteAck:         capRequest,
	MsgFence:            capRequest,
	MsgEpoch:            capRequest,
	MsgQueryRecords:     capRequest,
	MsgRecordList:       MaxFrame, // a fabric's full retained record set
	MsgCutover:          capRequest,
	MsgCutoverOK:        capRequest,
	MsgHostReport:       capHostReport,
}

// PayloadCap returns the maximum payload size for t. Unknown types get
// the global MaxFrame bound so newer peers can add frames without older
// readers rejecting them harder than the framing itself would.
func PayloadCap(t MsgType) int {
	if Known(t) {
		return payloadCaps[t]
	}
	return MaxFrame
}

// CapError reports a frame whose payload exceeds its type's cap. It
// matches ErrFrameTooLarge under errors.Is so existing oversize handling
// catches both.
type CapError struct {
	Type MsgType
	Size int
	Cap  int
}

func (e *CapError) Error() string {
	return fmt.Sprintf("wire: %d-byte payload exceeds %d-byte cap for message type %d", e.Size, e.Cap, e.Type)
}

// Is makes errors.Is(err, ErrFrameTooLarge) hold for cap violations.
func (e *CapError) Is(target error) bool { return target == ErrFrameTooLarge }

// checkCap enforces the per-type payload cap.
func checkCap(t MsgType, n int) error {
	if c := PayloadCap(t); n > c {
		return &CapError{Type: t, Size: n, Cap: c}
	}
	return nil
}

// ErrBadHello reports a structurally invalid handshake.
var ErrBadHello = errors.New("wire: bad hello")

// maxEpochNS bounds the declared telemetry epoch: an hour-long epoch is
// a corrupted handshake, not a configuration.
const maxEpochNS = int64(3600) * 1e9

// maxFabricName bounds the fabric label.
const maxFabricName = 128

// ParseHello decodes and structurally validates a MsgHello payload:
// version match, epoch within plausible bounds, fabric name and embedded
// topology spec bounded. The topology itself still needs
// topo.ParseSpecJSON — this only refuses payloads no parser should see.
func ParseHello(payload []byte) (Hello, error) {
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("%w: protocol version %d, want %d", ErrBadHello, h.Version, ProtocolVersion)
	}
	if h.EpochNS < 0 || h.EpochNS > maxEpochNS {
		return h, fmt.Errorf("%w: implausible epoch %dns", ErrBadHello, h.EpochNS)
	}
	if len(h.Fabric) > maxFabricName {
		return h, fmt.Errorf("%w: fabric name %d bytes", ErrBadHello, len(h.Fabric))
	}
	if len(h.Topo) > capHello {
		return h, fmt.Errorf("%w: topology spec %d bytes", ErrBadHello, len(h.Topo))
	}
	return h, nil
}

// ReportError is the typed rejection a Validator returns: the report
// (attributed to Switch when the ID itself was credible) failed a
// semantic admission check.
type ReportError struct {
	Switch topo.NodeID
	// SwitchKnown is false when the switch ID itself was the problem, so
	// rejection accounting must not attribute the report to a real node.
	SwitchKnown bool
	Reason      string
}

func (e *ReportError) Error() string {
	if e.SwitchKnown {
		return fmt.Sprintf("wire: report from switch %d rejected: %s", e.Switch, e.Reason)
	}
	return fmt.Sprintf("wire: report rejected: %s", e.Reason)
}

// Validator bounds limits for fields the handshake does not declare.
const (
	maxReportEpochs = 4096
	maxFlowSlots    = 1 << 20
	// maxPauseAheadNS bounds how far a live pause register may extend past
	// the snapshot time; PFC pauses are microseconds, a pause a full
	// second in the future is fabricated.
	maxPauseAheadNS = int64(1e9)
)

// Validator performs semantic admission checks on decoded telemetry
// reports against a session's handshake-declared topology: switch and
// port IDs must exist in the fabric the peer itself declared, counters
// must be non-negative, snapshot times must advance monotonically per
// switch, and durations must be physically plausible. It is stateful
// (per-session) and not safe for concurrent use — sessions are
// single-reader.
type Validator struct {
	ports     []int // per-node port count from the handshake topology
	isSwitch  []bool
	lastTaken map[topo.NodeID]int64
}

// NewValidator builds a validator for the handshake-declared topology.
func NewValidator(t *topo.Topology) *Validator {
	v := &Validator{
		ports:     make([]int, len(t.Nodes)),
		isSwitch:  make([]bool, len(t.Nodes)),
		lastTaken: make(map[topo.NodeID]int64),
	}
	for i, n := range t.Nodes {
		v.ports[i] = len(n.Ports)
		v.isSwitch[i] = n.Kind == topo.KindSwitch
	}
	return v
}

func reject(sw topo.NodeID, known bool, format string, args ...any) error {
	return &ReportError{Switch: sw, SwitchKnown: known, Reason: fmt.Sprintf(format, args...)}
}

// CheckReport admits or rejects one decoded report. On admission the
// per-switch monotonicity watermark advances; a rejected report leaves
// no state behind.
func (v *Validator) CheckReport(r *telemetry.Report) error {
	sw := r.Switch
	if int(sw) < 0 || int(sw) >= len(v.ports) {
		return reject(sw, false, "switch %d outside the handshake topology (%d nodes)", sw, len(v.ports))
	}
	if !v.isSwitch[sw] {
		return reject(sw, false, "node %d is a host, not a switch", sw)
	}
	if r.Taken < 0 {
		return reject(sw, true, "negative snapshot time %d", r.Taken)
	}
	declared := v.ports[sw]
	if r.NumPorts <= 0 || r.NumPorts > declared {
		return reject(sw, true, "port count %d disagrees with handshake topology (%d ports)", r.NumPorts, declared)
	}
	if r.NumEpochs <= 0 || r.NumEpochs > maxReportEpochs {
		return reject(sw, true, "implausible epoch ring size %d", r.NumEpochs)
	}
	if r.FlowSlots < 0 || r.FlowSlots > maxFlowSlots {
		return reject(sw, true, "implausible flow table size %d", r.FlowSlots)
	}
	if len(r.Epochs) > r.NumEpochs {
		return reject(sw, true, "%d epoch payloads from a %d-slot ring", len(r.Epochs), r.NumEpochs)
	}
	if len(r.Status) > r.NumPorts {
		return reject(sw, true, "%d status records for %d ports", len(r.Status), r.NumPorts)
	}
	prevStart := int64(1<<63 - 1)
	for i := range r.Epochs {
		ep := &r.Epochs[i]
		if ep.Ring < 0 || ep.Ring >= r.NumEpochs {
			return reject(sw, true, "epoch ring index %d outside [0,%d)", ep.Ring, r.NumEpochs)
		}
		if ep.Start < 0 || ep.Start > r.Taken {
			return reject(sw, true, "epoch start %d outside [0, taken=%d]", ep.Start, r.Taken)
		}
		// Snapshot extracts epochs newest-first; an out-of-order payload
		// did not come from the snapshot path.
		if int64(ep.Start) > prevStart {
			return reject(sw, true, "epoch starts not newest-first (%d after %d)", ep.Start, prevStart)
		}
		prevStart = int64(ep.Start)
		for j := range ep.Flows {
			f := &ep.Flows[j]
			if f.OutPort < 0 || f.OutPort >= r.NumPorts {
				return reject(sw, true, "flow record egress port %d outside [0,%d)", f.OutPort, r.NumPorts)
			}
			if f.PausedCount > f.PktCount || f.DeepCount > f.PktCount {
				return reject(sw, true, "flow record counts paused=%d deep=%d exceed packets=%d",
					f.PausedCount, f.DeepCount, f.PktCount)
			}
		}
		for j := range ep.Ports {
			p := &ep.Ports[j]
			if p.Port < 0 || p.Port >= r.NumPorts {
				return reject(sw, true, "port record port %d outside [0,%d)", p.Port, r.NumPorts)
			}
			if p.PausedCount > p.PktCount {
				return reject(sw, true, "port record paused=%d exceeds packets=%d", p.PausedCount, p.PktCount)
			}
		}
	}
	for i := range r.Meter {
		m := &r.Meter[i]
		if m.InPort < 0 || m.InPort >= r.NumPorts || m.OutPort < 0 || m.OutPort >= r.NumPorts {
			return reject(sw, true, "meter cell (%d,%d) outside [0,%d)^2", m.InPort, m.OutPort, r.NumPorts)
		}
	}
	for i := range r.Status {
		st := &r.Status[i]
		if st.Port < 0 || st.Port >= r.NumPorts {
			return reject(sw, true, "status record port %d outside [0,%d)", st.Port, r.NumPorts)
		}
		if st.PausedUntil < 0 {
			return reject(sw, true, "negative pause deadline %d", st.PausedUntil)
		}
		if int64(st.PausedUntil)-int64(r.Taken) > maxPauseAheadNS {
			return reject(sw, true, "pause deadline %dns past snapshot time", int64(st.PausedUntil)-int64(r.Taken))
		}
		if st.QdepthBytes < 0 {
			return reject(sw, true, "negative queue depth %d", st.QdepthBytes)
		}
	}
	// Cross-report monotonicity: a snapshot older than one already
	// admitted for this switch is a replay or a corrupted timestamp —
	// admitting it would let stale evidence overwrite fresh.
	if last, ok := v.lastTaken[sw]; ok && int64(r.Taken) < last {
		return reject(sw, true, "snapshot time %d regressed below admitted %d", r.Taken, last)
	}
	v.lastTaken[sw] = int64(r.Taken)
	return nil
}

// CheckHostReport admits or rejects one decoded host-agent counter
// snapshot: the mirror image of CheckReport — the reporting node must be
// a *host* in the handshake topology, the counters must be internally
// consistent, and snapshot times advance monotonically per host (node
// IDs are disjoint between kinds, so hosts share the same watermark
// map). The returned ReportError carries the host ID in Switch when the
// ID itself was credible.
func (v *Validator) CheckHostReport(r *telemetry.HostReport) error {
	id := r.Host
	if int(id) < 0 || int(id) >= len(v.ports) {
		return reject(id, false, "host %d outside the handshake topology (%d nodes)", id, len(v.ports))
	}
	if v.isSwitch[id] {
		return reject(id, false, "node %d is a switch, not a host", id)
	}
	if err := r.Validate(); err != nil {
		return reject(id, true, "%v", err)
	}
	if last, ok := v.lastTaken[id]; ok && int64(r.Taken) < last {
		return reject(id, true, "snapshot time %d regressed below admitted %d", r.Taken, last)
	}
	v.lastTaken[id] = int64(r.Taken)
	return nil
}

// CheckPath admits the victim path a complaint declares: every ID must
// name a switch of the handshake topology, and none may repeat (a
// resolved path crosses each switch once).
func (v *Validator) CheckPath(path []topo.NodeID) error {
	seen := make(map[topo.NodeID]bool, len(path))
	for _, sw := range path {
		if int(sw) < 0 || int(sw) >= len(v.isSwitch) || !v.isSwitch[sw] || seen[sw] {
			return fmt.Errorf("%w: declared path names node %d, not a distinct switch of the handshake topology", ErrBadRequest, sw)
		}
		seen[sw] = true
	}
	return nil
}

// ErrBadReplRecord reports a replication record that failed semantic
// admission. A follower that sees one tears the stream down and
// re-syncs rather than writing a poisoned entry into its own log.
var ErrBadReplRecord = errors.New("wire: bad replication record")

// Replication record structural bounds: a hostile or corrupted primary
// must not be able to fill a follower's log with garbage that only
// explodes at promotion time.
const (
	maxReplVictim   = 512
	maxReplCulprits = 256
	maxReplLoop     = 1024
	maxReplPod      = 64
)

// replRecordShape mirrors the fields of a fleetstore record the
// validator bounds. The store marshals records with Go field names (no
// tags), so the shape uses the same names; unknown fields pass through
// — a newer primary may add attributes an older follower just stores.
type replRecordShape struct {
	Fabric    string
	Seq       uint64
	OriginSeq uint64
	Ctrl      string
	At        int64
	Victim    string
	Culprits  []string
	Loop      []json.RawMessage
	Pod       string
	Score     float64
	StallNS   int64
}

// checkRecordShape applies the structural bounds shared by replication
// records and routed writes.
func checkRecordShape(rec *replRecordShape) error {
	if len(rec.Fabric) > maxFabricName {
		return badRepl("fabric name %d bytes", len(rec.Fabric))
	}
	switch rec.Ctrl {
	case "", "purge", "adopt":
	default:
		return badRepl("unknown control record kind %q", rec.Ctrl)
	}
	if len(rec.Victim) > maxReplVictim {
		return badRepl("victim %d bytes", len(rec.Victim))
	}
	if len(rec.Culprits) > maxReplCulprits {
		return badRepl("%d culprit flows", len(rec.Culprits))
	}
	for _, c := range rec.Culprits {
		if len(c) > maxReplVictim {
			return badRepl("culprit flow %d bytes", len(c))
		}
	}
	if len(rec.Loop) > maxReplLoop {
		return badRepl("%d-hop deadlock loop", len(rec.Loop))
	}
	if len(rec.Pod) > maxReplPod {
		return badRepl("pod label %d bytes", len(rec.Pod))
	}
	if rec.At < 0 {
		return badRepl("negative trigger time %d", rec.At)
	}
	if rec.StallNS < 0 {
		return badRepl("negative stall %dns", rec.StallNS)
	}
	if rec.Score < 0 || rec.Score > 1 {
		return badRepl("confidence score %g outside [0,1]", rec.Score)
	}
	return nil
}

func badRepl(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadReplRecord, fmt.Sprintf(format, args...))
}

// ReplValidator performs semantic admission on a replication stream:
// frame-level shape (via DecodeReplRecord), structural bounds on the
// carried record, and a durable floor — sequences at or below the
// follower's own watermark are replays. It is stateful (per-stream)
// and not safe for concurrent use; replication streams, like report
// sessions, are single-reader.
type ReplValidator struct {
	// floor is the highest sequence already durable on the follower;
	// records at or below it are replays.
	floor uint64
	// high is the highest sequence admitted on this stream.
	high uint64
}

// NewReplValidator builds a validator whose replay floor is the
// follower's durable watermark (0 for an empty follower).
func NewReplValidator(floor uint64) *ReplValidator {
	return &ReplValidator{floor: floor}
}

// CheckRecord admits or rejects one MsgReplRecord payload, returning
// the decoded seq and record payload on admission. The record payload
// aliases b. Admission advances the stream high-water mark; rejected
// frames leave no state behind.
func (v *ReplValidator) CheckRecord(b []byte) (seq uint64, payload []byte, err error) {
	seq, payload, err = DecodeReplRecord(b)
	if err != nil {
		return 0, nil, err
	}
	if seq <= v.floor {
		return 0, nil, badRepl("seq %d at or below durable floor %d (replay)", seq, v.floor)
	}
	var rec replRecordShape
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, nil, badRepl("record body: %v", err)
	}
	// The embedded Seq, when present, must agree with the frame header —
	// a disagreement means the payload was spliced from another entry.
	if rec.Seq != 0 && rec.Seq != seq {
		return 0, nil, badRepl("embedded seq %d disagrees with frame seq %d", rec.Seq, seq)
	}
	if err := checkRecordShape(&rec); err != nil {
		return 0, nil, err
	}
	if seq > v.high {
		v.high = seq
	}
	return seq, payload, nil
}

// Commit advances the durable floor: the follower has written every
// record at or below seq to its own log, so anything at or below it
// arriving again is a replay.
func (v *ReplValidator) Commit(seq uint64) {
	if seq > v.floor {
		v.floor = seq
	}
}

// High returns the highest sequence admitted on this stream.
func (v *ReplValidator) High() uint64 { return v.high }

// ErrBadRoute reports a malformed routing/fencing payload (write,
// epoch announce, fence, record query, cutover).
var ErrBadRoute = errors.New("wire: bad routing payload")

// maxEpoch bounds a declared shard epoch: epochs count promotions and
// cutovers, so a value anywhere near 2^32 is a corrupted or hostile
// frame, not a long-lived cluster.
const maxEpoch = uint64(1) << 32

func badRoute(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRoute, fmt.Sprintf(format, args...))
}

func checkEpochValue(label string, e uint64) error {
	if e > maxEpoch {
		return badRoute("implausible %s epoch %d", label, e)
	}
	return nil
}

// ParseWriteRequest decodes and validates a MsgWriteRecord payload:
// fabric named and bounded, a plausible epoch, and an embedded record
// that passes the same structural bounds as a replicated one and
// agrees on the fabric.
func ParseWriteRequest(payload []byte) (WriteRequest, error) {
	var req WriteRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return req, badRoute("write request: %v", err)
	}
	if req.Fabric == "" {
		return req, badRoute("write request without a fabric")
	}
	if len(req.Fabric) > maxFabricName {
		return req, badRoute("fabric name %d bytes", len(req.Fabric))
	}
	// OriginSeq 0 is legal but weaker: no dedup key, so the admission is
	// at-least-once (the reshard copy path uses it for records that were
	// never writer-routed).
	if err := checkEpochValue("writer", req.Epoch); err != nil {
		return req, err
	}
	if len(req.Record) == 0 {
		return req, badRoute("write request without a record")
	}
	var rec replRecordShape
	if err := json.Unmarshal(req.Record, &rec); err != nil {
		return req, badRoute("record body: %v", err)
	}
	if rec.Ctrl != "" {
		return req, badRoute("control record %q on the write path", rec.Ctrl)
	}
	if rec.Fabric != req.Fabric {
		return req, badRoute("record fabric %q disagrees with envelope %q", rec.Fabric, req.Fabric)
	}
	if rec.OriginSeq != 0 && rec.OriginSeq != req.OriginSeq {
		return req, badRoute("record origin seq %d disagrees with envelope %d", rec.OriginSeq, req.OriginSeq)
	}
	if err := checkRecordShape(&rec); err != nil {
		return req, fmt.Errorf("%w: %v", ErrBadRoute, err)
	}
	return req, nil
}

// ParseEpochAnnounce decodes and validates a MsgEpoch payload.
func ParseEpochAnnounce(payload []byte) (EpochAnnounce, error) {
	var ann EpochAnnounce
	if err := json.Unmarshal(payload, &ann); err != nil {
		return ann, badRoute("epoch announce: %v", err)
	}
	if ann.Shard == "" {
		return ann, badRoute("epoch announce without a shard")
	}
	if len(ann.Shard) > maxFabricName {
		return ann, badRoute("shard name %d bytes", len(ann.Shard))
	}
	if ann.Epoch == 0 {
		return ann, badRoute("epoch announce of epoch 0")
	}
	if err := checkEpochValue("announced", ann.Epoch); err != nil {
		return ann, err
	}
	return ann, nil
}

// ParseFence decodes and validates a MsgFence payload.
func ParseFence(payload []byte) (FenceInfo, error) {
	var f FenceInfo
	if err := json.Unmarshal(payload, &f); err != nil {
		return f, badRoute("fence: %v", err)
	}
	if len(f.Shard) > maxFabricName {
		return f, badRoute("shard name %d bytes", len(f.Shard))
	}
	if len(f.Fabric) > maxFabricName {
		return f, badRoute("fabric name %d bytes", len(f.Fabric))
	}
	if err := checkEpochValue("own", f.Epoch); err != nil {
		return f, err
	}
	if err := checkEpochValue("observed", f.Observed); err != nil {
		return f, err
	}
	if f.Fenced && f.Observed <= f.Epoch {
		return f, badRoute("fenced without a superseding epoch (own %d, observed %d)", f.Epoch, f.Observed)
	}
	return f, nil
}

// ParseRecordQuery decodes and validates a MsgQueryRecords payload.
func ParseRecordQuery(payload []byte) (RecordQuery, error) {
	var q RecordQuery
	if err := json.Unmarshal(payload, &q); err != nil {
		return q, badRoute("record query: %v", err)
	}
	if q.Fabric == "" {
		return q, badRoute("record query without a fabric")
	}
	if len(q.Fabric) > maxFabricName {
		return q, badRoute("fabric name %d bytes", len(q.Fabric))
	}
	if q.Limit < 0 {
		return q, badRoute("negative record limit %d", q.Limit)
	}
	return q, nil
}

// ParseCutover decodes and validates a MsgCutover payload.
func ParseCutover(payload []byte) (CutoverRequest, error) {
	var req CutoverRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return req, badRoute("cutover: %v", err)
	}
	if req.Fabric == "" {
		return req, badRoute("cutover without a fabric")
	}
	if len(req.Fabric) > maxFabricName {
		return req, badRoute("fabric name %d bytes", len(req.Fabric))
	}
	if req.Op != CutoverFreeze && req.Op != CutoverRelease && req.Op != CutoverAdopt {
		return req, badRoute("unknown cutover op %q", req.Op)
	}
	return req, nil
}
