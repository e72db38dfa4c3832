package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// syncOpts is the deterministic mode: every Append fsyncs inline.
func syncOpts() Options { return Options{GroupWindow: -1} }

func entryPayload(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func fillLog(t *testing.T, dir string, n int, opts Options) {
	t.Helper()
	l, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := l.Append(uint64(i), entryPayload(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll reopens dir and collects every replayed entry.
func replayAll(t *testing.T, dir string, opts Options) (*Log, RecoveryStats, []uint64) {
	t.Helper()
	var seqs []uint64
	l, stats, err := Open(dir, opts, func(seq uint64, payload []byte) error {
		if want := entryPayload(int(seq)); !bytes.Equal(payload, want) {
			t.Fatalf("seq %d payload %q, want %q", seq, payload, want)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, stats, seqs
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return segs[len(segs)-1]
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, 50, syncOpts())
	l, stats, seqs := replayAll(t, dir, syncOpts())
	defer l.Close()
	if len(seqs) != 50 || stats.Torn {
		t.Fatalf("replayed %d entries (torn=%v), want 50 clean", len(seqs), stats.Torn)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	if l.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", l.LastSeq())
	}
}

// TestWALTornTailTruncated cuts the segment mid-record: replay keeps the
// intact prefix, truncates the tear, and the log accepts new appends.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, 10, syncOpts())
	seg := onlySegment(t, dir)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear 5 bytes into the last record (header survives, payload torn).
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	l, stats, seqs := replayAll(t, dir, syncOpts())
	if len(seqs) != 9 || !stats.Torn || stats.TornBytes == 0 {
		t.Fatalf("replayed %d (stats %+v), want 9 with a recorded tear", len(seqs), stats)
	}
	// The tail was repaired: appending continues from seq 10.
	if err := l.Append(10, entryPayload(10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, stats2, seqs2 := replayAll(t, dir, syncOpts())
	defer l2.Close()
	if len(seqs2) != 10 || stats2.Torn {
		t.Fatalf("after repair+append replayed %d (torn=%v), want 10 clean", len(seqs2), stats2.Torn)
	}
}

// TestWALGarbageTailTruncated appends random junk (a torn group-commit
// batch) after valid records; replay must cut exactly the junk.
func TestWALGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, 7, syncOpts())
	seg := onlySegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, stats, seqs := replayAll(t, dir, syncOpts())
	defer l.Close()
	if len(seqs) != 7 || !stats.Torn || stats.TornBytes != 7 {
		t.Fatalf("replayed %d, stats %+v; want 7 entries, 7 torn bytes", len(seqs), stats)
	}
}

// TestWALCRCMismatchStopsReplay flips a byte inside an early record:
// replay must stop at the corruption instead of delivering garbage, and
// truncate there so the log is consistent again.
func TestWALCRCMismatchStopsReplay(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, 10, syncOpts())
	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the 4th record's payload: 3 intact entries precede it.
	entry := headerSize + len(entryPayload(1))
	data[3*entry+headerSize+2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, stats, seqs := replayAll(t, dir, syncOpts())
	defer l.Close()
	if len(seqs) != 3 {
		t.Fatalf("replayed %d entries past corruption, want 3", len(seqs))
	}
	if !stats.Torn {
		t.Fatal("corruption not reported as a tear")
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(3*entry) {
		t.Fatalf("segment %d bytes after repair, want %d", info.Size(), 3*entry)
	}
}

// TestWALFsyncReorderDropsLaterSegments simulates the reorder a crash
// can expose: a later segment hit disk while the earlier segment's tail
// was torn. Replay must stop at the tear and drop the later segment —
// its entries were never acknowledged as following a durable prefix.
func TestWALFsyncReorderDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Small segments force a roll: ~3 entries per segment.
	opts := Options{GroupWindow: -1, SegmentBytes: 3 * int64(headerSize+len(entryPayload(1)))}
	fillLog(t, dir, 10, opts)
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", segs, err)
	}
	// Tear the tail of the first segment.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	l, stats, seqs := replayAll(t, dir, opts)
	defer l.Close()
	if stats.DroppedSegments == 0 {
		t.Fatalf("no segments dropped after mid-log tear (stats %+v)", stats)
	}
	// Entries stop before the torn segment's last record; none from the
	// dropped segments appear.
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("replay out of order after tear: seq[%d] = %d", i, s)
		}
	}
	if len(seqs) >= 10 {
		t.Fatalf("replayed %d entries, want a strict prefix of 10", len(seqs))
	}
	if rest, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix)); len(rest) != 1 {
		t.Fatalf("%d segments remain after drop, want 1", len(rest))
	}
}

// TestWALGroupCommitBatches proves concurrent appends share fsyncs: the
// first leader is parked in its fsync while the other 63 appenders queue
// behind it, so on release they are all durable on return, with strictly
// fewer syncs than appends.
func TestWALGroupCommitBatches(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	l, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	release, wait := appendBehindHeldSync(t, l, n-1)
	close(release)
	for seq, err := range wait() {
		if err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if l.Appends() != n {
		t.Fatalf("appends = %d, want %d", l.Appends(), n)
	}
	if l.Syncs() >= l.Appends() {
		t.Fatalf("syncs = %d for %d appends: group commit did not batch", l.Syncs(), l.Appends())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, seqs := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(seqs) != n {
		t.Fatalf("replayed %d entries, want %d", len(seqs), n)
	}
}

func TestWALAppendAfterCloseAndAbort(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, syncOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, entryPayload(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := l.Append(2, entryPayload(2)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}

	l2, _, err := Open(dir, syncOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(2, entryPayload(2)); err != nil {
		t.Fatal(err)
	}
	l2.Abort()
	l2.Abort() // idempotent
	if err := l2.Append(3, entryPayload(3)); err != ErrClosed {
		t.Fatalf("append after abort: %v, want ErrClosed", err)
	}
	// Both acknowledged entries survive the abort: ack == synced.
	l3, _, seqs := replayAll(t, dir, syncOpts())
	defer l3.Close()
	if len(seqs) != 2 {
		t.Fatalf("replayed %d entries after abort, want 2", len(seqs))
	}
}

func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	opts := Options{GroupWindow: -1, SegmentBytes: 3 * int64(headerSize+len(entryPayload(1)))}
	l, _, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 12; i++ {
		if err := l.Append(uint64(i), entryPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 3 {
		t.Fatalf("want >= 3 segments before compaction, got %d", before)
	}
	removed, err := l.Compact(6) // snapshot covers seqs 1..6
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || l.Segments() >= before {
		t.Fatalf("compaction removed %d (segments %d -> %d)", removed, before, l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay only sees post-compaction entries; the snapshot owns the rest.
	var seqs []uint64
	l2, _, err := Open(dir, opts, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, s := range seqs {
		if s <= 3 {
			t.Fatalf("compacted entry seq %d replayed", s)
		}
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 12 {
		t.Fatalf("tail entries missing after compaction: %v", seqs)
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := LoadSnapshot(dir); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	if err := WriteSnapshot(dir, 10, []byte("state-at-10")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(dir, 20, []byte("state-at-20")); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok, err := LoadSnapshot(dir)
	if err != nil || !ok || seq != 20 || string(payload) != "state-at-20" {
		t.Fatalf("load: seq=%d payload=%q ok=%v err=%v", seq, payload, ok, err)
	}
	// Corrupt the newest: loader falls back to the older snapshot.
	data, err := os.ReadFile(filepath.Join(dir, snapName(20)))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, snapName(20)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, payload, ok, err = LoadSnapshot(dir)
	if err != nil || !ok || seq != 10 || string(payload) != "state-at-10" {
		t.Fatalf("fallback load: seq=%d payload=%q ok=%v err=%v", seq, payload, ok, err)
	}
	// Pruning keeps the newest snapKeep files.
	for s := uint64(30); s <= 60; s += 10 {
		if err := WriteSnapshot(dir, s, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	names, err := snapshotNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != snapKeep {
		t.Fatalf("%d snapshots retained, want %d", len(names), snapKeep)
	}
}
