package wal

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// The group-commit tests synchronise on the commit path's own states,
// never on elapsed time: holdFirstSync parks the first leader just
// before its fsync, and the tests watch the queue fill behind it.

// holdFirstSync installs a sync hook that parks the first batch before
// its fsync until release is closed; entered closes once it is parked.
// Later batches pass straight through. Install before the first Append.
func holdFirstSync(l *Log) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	first := true // the hook runs under l.mu, which orders these accesses
	l.syncHook = func() {
		if first {
			first = false
			close(entered)
			<-release
		}
	}
	return entered, release
}

func (l *Log) queued() int {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	return len(l.queue)
}

func (l *Log) isClosed() bool {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	return l.closed
}

// until yields until cond holds. It waits for a state, not a duration:
// a state that never comes hangs the test into its timeout.
func until(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// appendBehindHeldSync parks entry 1 in its fsync and queues entries
// 2..n+1 behind it; the returned wait collects every Append's error,
// indexed by seq.
func appendBehindHeldSync(t *testing.T, l *Log, n int) (release chan struct{}, wait func() []error) {
	t.Helper()
	entered, release := holdFirstSync(l)
	errs := make([]error, n+2)
	var wg sync.WaitGroup
	for seq := 1; seq <= n+1; seq++ {
		seq := seq
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[seq] = l.Append(uint64(seq), entryPayload(seq))
		}()
		if seq == 1 {
			<-entered // the leader is in its fsync before anyone else appends
		}
	}
	until(func() bool { return l.queued() == n })
	return release, func() []error { wg.Wait(); return errs }
}

// A lone appender is its own leader: it never waits for companions,
// whatever the (now meaningless) window says. On the timer-driven
// flusher this test hangs for the hour.
func TestWALLoneAppendNeverWaitsForWindow(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{GroupWindow: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if err := l.Append(uint64(i), entryPayload(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.Appends() != 5 || l.Syncs() != l.Appends() {
		t.Fatalf("appends = %d, syncs = %d: a lone appender must fsync once per append, alone",
			l.Appends(), l.Syncs())
	}
}

// Appenders that arrive during a leader's fsync are committed by the
// next leader as one batch: N+1 appends, exactly 2 fsyncs.
func TestWALGroupCommitGathersDuringSync(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	l, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	release, wait := appendBehindHeldSync(t, l, n)
	close(release)
	for seq, err := range wait() {
		if err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if l.Appends() != n+1 || l.Syncs() != 2 {
		t.Fatalf("appends = %d, syncs = %d; want %d appends in exactly 2 syncs", l.Appends(), l.Syncs(), n+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, seqs := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(seqs) != n+1 {
		t.Fatalf("replayed %d entries, want %d", len(seqs), n+1)
	}
}

func TestWALGroupCommitHonoursMaxBatch(t *testing.T) {
	const n, maxBatch = 10, 4
	l, _, err := Open(t.TempDir(), Options{MaxBatch: maxBatch}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	release, wait := appendBehindHeldSync(t, l, n)
	close(release)
	for seq, err := range wait() {
		if err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	// The held leader alone, then the 10 queued in batches of 4, 4, 2.
	if want := uint64(1 + (n+maxBatch-1)/maxBatch); l.Syncs() != want {
		t.Fatalf("syncs = %d for %d queued at MaxBatch %d, want %d", l.Syncs(), n, maxBatch, want)
	}
}

// Close lets every queued Append commit: each returns nil and replays.
func TestWALCloseCommitsQueuedAppenders(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	l, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	release, wait := appendBehindHeldSync(t, l, n)
	closed := make(chan error)
	go func() { closed <- l.Close() }()
	until(l.isClosed)
	if err := l.Append(99, entryPayload(99)); err != ErrClosed {
		t.Fatalf("append racing Close: %v, want ErrClosed", err)
	}
	close(release)
	for seq, err := range wait() {
		if err != nil {
			t.Fatalf("append %d queued before Close: %v", seq, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	l2, _, seqs := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(seqs) != n+1 {
		t.Fatalf("replayed %d entries, want %d", len(seqs), n+1)
	}
}

// Abort tears what is still queued: an Append may only return nil for
// an entry that replays, and everything else gets ErrClosed.
func TestWALAbortTearsQueuedAppenders(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	l, _, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	release, wait := appendBehindHeldSync(t, l, n)
	aborted := make(chan struct{})
	go func() { l.Abort(); close(aborted) }()
	until(l.isClosed)
	close(release)
	errs := wait()
	<-aborted
	if errs[1] != nil {
		t.Fatalf("append 1 was mid-fsync when Abort came: %v, want nil", errs[1])
	}
	if err := l.Append(99, entryPayload(99)); err != ErrClosed {
		t.Fatalf("append after Abort: %v, want ErrClosed", err)
	}
	l2, _, seqs := replayAll(t, dir, Options{})
	defer l2.Close()
	replayed := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		replayed[seq] = true
	}
	for seq := 1; seq <= n+1; seq++ {
		switch {
		case errs[seq] == nil && !replayed[uint64(seq)]:
			t.Fatalf("append %d returned nil but did not replay", seq)
		case errs[seq] != nil && errs[seq] != ErrClosed:
			t.Fatalf("append %d: %v, want nil or ErrClosed", seq, errs[seq])
		}
	}
}
