package analyzd

import (
	"encoding/json"
	"fmt"
	"time"

	"hawkeye/internal/fleetstore"
	"hawkeye/internal/fleetstore/watermark"
	"hawkeye/internal/wire"
)

// Writer-routed ingest, fencing and reshard cutovers — the server side
// of the fleet tier's failover protocol. The invariant everything here
// serves: once a shard has observed a higher epoch for itself (from a
// follower, a writer, a front door or a reshard executor) it never
// acks another write, durably, even across a restart.

// fenceInfo builds the typed refusal for the current fence state.
func (s *Server) fenceInfo() wire.FenceInfo {
	return wire.FenceInfo{
		Shard:    s.shard,
		Epoch:    s.fleet.Epoch(),
		Observed: s.fleet.FencedBy(),
		Fenced:   true,
	}
}

// fenced reports whether this shard has been superseded; fenced shards
// refuse all ingest with wire.MsgFence.
func (s *Server) fenced() bool { return s.fleet.FencedBy() != 0 }

// serveWrite handles one writer-routed record (MsgWriteRecord):
// fencing and moved-out checks, idempotent admission keyed by
// fabric+OriginSeq, then a semi-sync follower wait before the ack.
func (s *Server) serveWrite(sess *session, payload []byte) bool {
	wr, err := wire.ParseWriteRequest(payload)
	if err != nil {
		return s.badPayload(sess, err)
	}
	// A writer carrying a higher epoch than ours proves a promotion we
	// missed: demote durably before refusing.
	if wr.Epoch > s.fleet.Epoch() {
		_ = s.fleet.NoteFence(wr.Epoch)
	}
	if s.fenced() {
		_ = sess.writeJSON(wire.MsgFence, s.fenceInfo())
		return false
	}
	if s.handoff.Load() {
		sess.sendErr("shard draining: ingest refused")
		return false
	}
	if s.fleet.MovedOut(wr.Fabric) {
		_ = sess.writeJSON(wire.MsgFence, wire.FenceInfo{
			Shard: s.shard, Epoch: s.fleet.Epoch(), Moved: true, Fabric: wr.Fabric,
		})
		return true
	}
	var rec fleetstore.Record
	if err := json.Unmarshal(wr.Record, &rec); err != nil {
		return s.badPayload(sess, err)
	}
	rec.Fabric = wr.Fabric
	rec.OriginSeq = wr.OriginSeq
	rec.Ctrl = ""
	admitted, outcome := s.fleet.AddUnique(rec)
	switch outcome {
	case fleetstore.AdmitFrozen:
		// Sealed mid-cutover: the same refusal as moved-out — the writer
		// holds on its reshard state and re-resolves the owner.
		_ = sess.writeJSON(wire.MsgFence, wire.FenceInfo{
			Shard: s.shard, Epoch: s.fleet.Epoch(), Moved: true, Fabric: wr.Fabric,
		})
		return true
	case fleetstore.AdmitDuplicate:
		// Duplicate resend: the record is already admitted. The ack is
		// positive, but still waits for the follower to cover the store's
		// current watermark — a duplicate ack must be as durable a promise
		// as the original would have been.
		if !s.waitSemiSync(s.fleet.Seq()) {
			sess.sendErr("semi-sync: follower lagging, write not acknowledged")
			return true
		}
		return sess.writeJSON(wire.MsgWriteAck, wire.WriteAck{
			OriginSeq: wr.OriginSeq, Epoch: s.fleet.Epoch(), Duplicate: true,
		}) == nil
	}
	if !s.waitSemiSync(admitted.Seq) {
		// Admitted but not replicated in time: no ack. The writer resends
		// the same OriginSeq and dedup keeps the store exactly-once.
		sess.sendErr("semi-sync: follower lagging, write not acknowledged")
		return true
	}
	// Re-check the fence after the wait: a write that raced a promotion
	// must not be acked by the loser.
	if s.fenced() {
		_ = sess.writeJSON(wire.MsgFence, s.fenceInfo())
		return false
	}
	return sess.writeJSON(wire.MsgWriteAck, wire.WriteAck{
		Seq: admitted.Seq, OriginSeq: wr.OriginSeq, Epoch: s.fleet.Epoch(),
	}) == nil
}

// waitSemiSync blocks until a follower has acked seq, bounded by
// Options.SemiSync. Vacuously true with semi-sync off or no follower
// attached (degraded: acks then promise local durability only).
func (s *Server) waitSemiSync(seq uint64) bool {
	if s.semiSync <= 0 {
		return true
	}
	return s.awaitFollower(&s.followerSeq, seq, time.Now().Add(s.semiSync))
}

// awaitFollower blocks until a follower has acked w up to target or
// none is attached any more, and reports false when the deadline
// passes first. It wakes on the ack and on the detach themselves, never
// on a clock.
func (s *Server) awaitFollower(w *watermark.Watermark, target uint64, deadline time.Time) bool {
	noFollower := func() bool { return s.fleet.Replicas() == 0 }
	return w.Wait(target, deadline, noFollower) || noFollower()
}

// serveEpochAnnounce handles MsgEpoch from a peer (front door, writer
// probe, reshard executor): a higher epoch for our shard demotes us
// durably. The reply is always MsgFence carrying our current view, so
// the announce doubles as a fencing probe.
func (s *Server) serveEpochAnnounce(sess *session, payload []byte) bool {
	ea, err := wire.ParseEpochAnnounce(payload)
	if err != nil {
		return s.badPayload(sess, err)
	}
	if (ea.Shard == s.shard || s.shard == "") && ea.Epoch > s.fleet.Epoch() {
		_ = s.fleet.NoteFence(ea.Epoch)
	}
	return sess.writeJSON(wire.MsgFence, wire.FenceInfo{
		Shard:    s.shard,
		Epoch:    s.fleet.Epoch(),
		Observed: s.fleet.FencedBy(),
		Fenced:   s.fenced(),
	}) == nil
}

// serveRecordQuery handles MsgQueryRecords: the reshard executor's
// full-fabric dump. Records are returned in trigger-time order with
// their writer-idempotency sequences intact, so the copy to the new
// owner preserves dedup across the move.
func (s *Server) serveRecordQuery(sess *session, payload []byte) bool {
	rq, err := wire.ParseRecordQuery(payload)
	if err != nil {
		return s.badPayload(sess, err)
	}
	s.pipe.Drain()
	recs := s.fleet.Records(fleetstore.Query{
		Fabric: rq.Fabric,
		Node:   fleetstore.AnyNode,
		Limit:  rq.Limit,
	})
	dump := wire.RecordDump{Fabric: rq.Fabric, Records: make([]json.RawMessage, 0, len(recs))}
	for i := range recs {
		data, err := json.Marshal(&recs[i])
		if err != nil {
			sess.sendErr(fmt.Sprintf("encode record: %v", err))
			return false
		}
		dump.Records = append(dump.Records, data)
	}
	return sess.writeJSON(wire.MsgRecordList, dump) == nil
}

// serveCutover handles MsgCutover, the three steps of a reshard move.
// Freeze (on the old owner, before the copy): seal the fabric against
// admission so the dump is final. Release (on the old owner): purge
// the fabric behind a durable tombstone, bump + announce the epoch,
// checkpoint. Adopt (on the new
// owner): clear any moved-out marker behind a tombstone, rebuild the
// observer so copied records land in proper panes, bump + announce +
// checkpoint. Fenced shards refuse; a cutover must never be executed
// by a superseded primary.
func (s *Server) serveCutover(sess *session, payload []byte) bool {
	cr, err := wire.ParseCutover(payload)
	if err != nil {
		return s.badPayload(sess, err)
	}
	if s.fenced() {
		_ = sess.writeJSON(wire.MsgFence, s.fenceInfo())
		return false
	}
	s.pipe.Drain()
	reply := wire.CutoverReply{}
	switch cr.Op {
	case wire.CutoverFreeze:
		// Seal only: no tombstone, no epoch bump. From here the record
		// set the executor dumps is final — racing writes are refused and
		// re-routed.
		s.fleet.FreezeFabric(cr.Fabric)
		reply.Epoch = s.fleet.Epoch()
		return sess.writeJSON(wire.MsgCutoverOK, reply) == nil
	case wire.CutoverRelease:
		n, err := s.fleet.PurgeFabric(cr.Fabric)
		if err != nil {
			sess.sendErr(fmt.Sprintf("cutover release: %v", err))
			return false
		}
		reply.Purged = n
	case wire.CutoverAdopt:
		if err := s.fleet.AdoptFabric(cr.Fabric); err != nil {
			sess.sendErr(fmt.Sprintf("cutover adopt: %v", err))
			return false
		}
	}
	epoch, err := s.fleet.BumpEpoch()
	if err != nil {
		sess.sendErr(fmt.Sprintf("cutover epoch: %v", err))
		return false
	}
	s.fleet.AnnounceEpoch(epoch)
	if err := s.fleet.Checkpoint(); err != nil {
		sess.sendErr(fmt.Sprintf("cutover checkpoint: %v", err))
		return false
	}
	reply.Epoch = epoch
	return sess.writeJSON(wire.MsgCutoverOK, reply) == nil
}

// BeginHandoff starts a graceful drain: ingest (writer-routed and
// fabric sessions) is refused from now on, while queries, health and
// the replication stream keep serving so the follower can catch up.
// Used by the SIGTERM path before WaitFollower.
func (s *Server) BeginHandoff() {
	s.handoff.Store(true)
}

// WaitFollower settles the ingest queue, then blocks until a follower
// has acked the store's full admission sequence and mirrored its
// fencing epoch — what a promotion from that follower needs to
// supersede this primary — bounded by timeout. Returns the follower
// watermark and whether catch-up completed; a server with no follower
// attached returns immediately (vacuously caught up — there is nobody
// to hand off to).
func (s *Server) WaitFollower(timeout time.Duration) (uint64, bool) {
	s.pipe.Drain()
	deadline := time.Now().Add(timeout)
	ok := s.awaitFollower(&s.followerSeq, s.fleet.Seq(), deadline) &&
		s.awaitFollower(&s.followerEpoch, s.fleet.Epoch(), deadline)
	return s.followerSeq.Load(), ok
}
