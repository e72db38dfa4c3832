package analyzd

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"hawkeye/internal/diagnosis"
	"hawkeye/internal/fleetstore"
	"hawkeye/internal/sim"
	"hawkeye/internal/wire"
)

// The semi-sync tests give the server an hour to wait, so the only
// thing that can end a wait inside the test timeout is the event the
// test delivers: a follower's ack, a follower's detach.

// semiSyncShard is a durable shard that acks a write only once a
// follower holds it (semiSync > 0), or on local durability alone (0).
func semiSyncShard(t *testing.T, semiSync time.Duration) *Server {
	t.Helper()
	srv, err := ListenOpts("127.0.0.1:0", Options{
		DataDir:  t.TempDir(),
		Shard:    "s0",
		Fleet:    fleetstore.DefaultConfig(),
		SemiSync: semiSync,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// scriptedFollower is the replication protocol's follower side driven
// by hand: it attaches a stream and then does exactly what the test
// says, so an ack or a detach lands at a chosen point of a write.
type scriptedFollower struct {
	t    *testing.T
	conn net.Conn
}

// attachFollower opens a replication stream from sequence 0. When it
// returns the server has registered the tap (the epoch announce it
// waits for is written after SyncReplica), so Replicas() is 1.
func attachFollower(t *testing.T, srv *Server) *scriptedFollower {
	t.Helper()
	f := &scriptedFollower{t: t, conn: rawSession(t, srv.Addr(), nil)}
	if err := wire.WriteJSON(f.conn, wire.MsgReplicate, wire.ReplicateRequest{}); err != nil {
		t.Fatal(err)
	}
	f.expect(wire.MsgEpoch)
	return f
}

func (f *scriptedFollower) expect(want wire.MsgType) []byte {
	f.t.Helper()
	mt, payload, err := wire.ReadFrame(f.conn)
	if err != nil {
		f.t.Fatalf("follower stream: %v", err)
	}
	if mt != want {
		f.t.Fatalf("follower stream: frame type %d (%s), want %d", mt, payload, want)
	}
	return payload
}

// nextRecord blocks until the primary streams a record — the barrier
// proving the write is admitted, fsynced and now waiting on this
// follower — and returns its sequence.
func (f *scriptedFollower) nextRecord() uint64 {
	f.t.Helper()
	seq, _, err := wire.NewReplValidator(0).CheckRecord(f.expect(wire.MsgReplRecord))
	if err != nil {
		f.t.Fatal(err)
	}
	return seq
}

// ack reports seq durable and epoch mirrored (0: no epoch claim).
func (f *scriptedFollower) ack(seq, epoch uint64) {
	f.t.Helper()
	if err := wire.WriteJSON(f.conn, wire.MsgReplAck, wire.ReplAck{Seq: seq, Epoch: epoch}); err != nil {
		f.t.Fatal(err)
	}
}

type writeResult struct {
	ack *wire.WriteAck
	err error
}

// writeAsync sends one writer-routed record and delivers the outcome.
func writeAsync(t *testing.T, srv *Server, originSeq uint64) <-chan writeResult {
	t.Helper()
	c, err := DialOperatorRetry(srv.Addr(), RetryConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rec, err := json.Marshal(fleetstore.Record{
		Fabric: "fab", At: 50 * sim.Microsecond, Victim: "v0001",
		Type: diagnosis.TypePFCStorm, Score: 0.5, StallNS: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan writeResult, 1)
	go func() {
		ack, err := c.WriteRecord(wire.WriteRequest{Fabric: "fab", OriginSeq: originSeq, Record: rec})
		out <- writeResult{ack, err}
	}()
	return out
}

// The follower's ack is what releases the write.
func TestSemiSyncAckWakesWriter(t *testing.T) {
	srv := semiSyncShard(t, time.Hour)
	fl := attachFollower(t, srv)
	res := writeAsync(t, srv, 1)
	seq := fl.nextRecord()
	fl.ack(seq, 0)
	got := <-res
	if got.err != nil {
		t.Fatalf("write: %v", got.err)
	}
	if got.ack.Seq != seq || got.ack.Duplicate {
		t.Fatalf("ack = %+v, want Seq %d, not duplicate", *got.ack, seq)
	}
}

// A follower that leaves without acking must not strand the writer:
// with nobody attached the ack reverts to local durability.
func TestSemiSyncWaitWakesOnFollowerDetach(t *testing.T) {
	srv := semiSyncShard(t, time.Hour)
	fl := attachFollower(t, srv)
	res := writeAsync(t, srv, 1)
	seq := fl.nextRecord()
	fl.conn.Close() // the session teardown detaches the tap
	got := <-res
	if got.err != nil {
		t.Fatalf("write: %v", got.err)
	}
	if got.ack.Seq != seq {
		t.Fatalf("ack = %+v, want Seq %d", *got.ack, seq)
	}
	if n := srv.Fleet().Replicas(); n != 0 {
		t.Fatalf("Replicas() = %d after the follower left, want 0", n)
	}
}

// A write that raced a promotion must not be acked by the loser: the
// fence lands while the write waits on its follower, the ack arrives,
// and the re-check after the wait turns the reply into a refusal.
func TestSemiSyncFenceRecheckedAfterWait(t *testing.T) {
	srv := semiSyncShard(t, time.Hour)
	fl := attachFollower(t, srv)
	res := writeAsync(t, srv, 1)
	seq := fl.nextRecord() // the write passed the up-front fence check and is waiting

	peer, err := DialOperatorRetry(srv.Addr(), RetryConfig{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	info, err := peer.AnnounceEpoch("s0", srv.Fleet().Epoch()+1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fenced {
		t.Fatalf("announce of a higher epoch left the shard unfenced: %+v", *info)
	}

	fl.ack(seq, 0)
	got := <-res
	if !errors.Is(got.err, ErrFenced) {
		t.Fatalf("write that raced the promotion: ack %+v, err %v; want ErrFenced", got.ack, got.err)
	}
}

// The handoff drain returns the moment the follower catches up — on
// the sequence and on the fencing epoch a promotion must supersede.
func TestWaitFollowerWakesOnAck(t *testing.T) {
	srv := semiSyncShard(t, 0)
	fl := attachFollower(t, srv)
	if got := <-writeAsync(t, srv, 1); got.err != nil {
		t.Fatalf("write: %v", got.err)
	}
	seq := fl.nextRecord()
	srv.BeginHandoff()

	// The records alone are not a handoff: the epoch is not mirrored yet.
	fl.ack(seq, 0)
	srv.followerSeq.Wait(seq, time.Now().Add(time.Hour), nil) // the primary has the ack
	if s, ok := srv.WaitFollower(time.Millisecond); ok || s != seq {
		t.Fatalf("WaitFollower before the epoch is mirrored = (%d, %v), want (%d, false)", s, ok, seq)
	}

	type caughtUp struct {
		seq uint64
		ok  bool
	}
	res := make(chan caughtUp)
	go func() {
		s, ok := srv.WaitFollower(time.Hour)
		res <- caughtUp{s, ok}
	}()
	fl.ack(seq, srv.Fleet().Epoch())
	if got := <-res; !got.ok || got.seq != seq {
		t.Fatalf("WaitFollower = (%d, %v), want (%d, true)", got.seq, got.ok, seq)
	}
	if s, ok := srv.WaitFollower(0); !ok || s != seq {
		t.Fatalf("WaitFollower on a caught-up follower = (%d, %v), want (%d, true)", s, ok, seq)
	}
}
