// Package wal gives the fleet store crash durability. It is two
// mechanisms behind one directory:
//
//   - a segmented write-ahead log: fixed-framed entries ([len][crc][seq]
//     [payload], CRC-32 over seq+payload) appended to roll-over segment
//     files, with leader-based group commit so a storm of concurrent
//     appends costs one fsync per batch, not per record, and a lone
//     append costs exactly one;
//   - atomic state snapshots: the store's full state serialized to a
//     snap file (written to a temp name, fsynced, renamed), after which
//     the segments the snapshot covers are compactable.
//
// Recovery is deliberately forgiving about the one corruption a crash
// legitimately produces — a torn tail. Replay verifies every entry's
// CRC; at the first bad entry it truncates the segment there, drops any
// later segments (an fsync reorder can persist a later segment while
// the earlier tail is torn), and reports what it cut. Everything before
// the tear — every entry whose Append returned — survives.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// headerSize frames one entry: 4-byte payload length, 4-byte CRC-32
	// (IEEE, over seq+payload), 8-byte sequence number.
	headerSize = 16
	// MaxEntry bounds one entry's payload; a fleet record is well under
	// a kilobyte, so anything near this is corruption, not data.
	MaxEntry = 16 << 20

	segPrefix = "seg-"
	segSuffix = ".wal"
)

// ErrClosed reports an append against a closed (or aborted) log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes the log.
type Options struct {
	// SegmentBytes rolls the active segment once it grows past this
	// (default 1 MiB).
	SegmentBytes int64
	// GroupWindow is ignored. It was the group-commit gather window of
	// the timer-driven flusher (negative selected a separate synchronous
	// mode); group commit is now leader-based — a batch is whatever
	// queued while the previous fsync was in flight — so there is no
	// window and one mode. The field remains so existing callers, which
	// set it to -1 or leave it zero, keep compiling.
	GroupWindow time.Duration
	// MaxBatch caps entries per group commit (default 64).
	MaxBatch int
	// ReadOnly opens for replay only: no repair truncation, no appends.
	ReadOnly bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	return o
}

// RecoveryStats reports what replay found and repaired.
type RecoveryStats struct {
	// Entries replayed successfully.
	Entries int
	// TornBytes truncated off the tail of the torn segment.
	TornBytes int64
	// DroppedSegments deleted because they followed a torn segment.
	DroppedSegments int
	// Torn is set when a tear was found (and, unless ReadOnly, repaired).
	Torn bool
}

// segment is one on-disk log file; FirstSeq is baked into the name so a
// directory listing orders the log.
type segment struct {
	path     string
	firstSeq uint64
	lastSeq  uint64
	size     int64
}

// appendReq is one Append in the commit queue. wake, made only by an
// Append that has to wait, carries exactly one signal: either a leader
// committed the entry (done set, err final) or the previous leader
// handed leadership over (done unset).
type appendReq struct {
	seq     uint64
	payload []byte
	wake    chan struct{}
	done    bool
	err     error
}

// Log is an open write-ahead log.
type Log struct {
	dir  string
	opts Options

	// qmu guards the commit queue. Invariant: a non-empty queue implies
	// committing, and queue[0] is then the current or designated leader,
	// so every queued Append is eventually committed or failed by the
	// leader chain. idle signals committing going false to Close/Abort.
	qmu        sync.Mutex
	queue      []*appendReq
	committing bool
	closed     bool
	idle       *sync.Cond

	// mu guards the file and segment index.
	mu       sync.Mutex
	active   *os.File
	actSize  int64
	actSeg   int // index into segments of the active one
	segments []segment

	lastSeq atomic.Uint64
	syncs   atomic.Uint64
	appends atomic.Uint64

	// syncHook, when set (tests only), runs under mu just before each
	// batch fsync — the seam that makes grouping deterministic to test.
	syncHook func()
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	var seq uint64
	if _, err := fmt.Sscanf(hex, "%x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open replays the log under dir (creating it if absent), invoking
// replay for every intact entry in order, then leaves the log open for
// appends. A torn tail is truncated (and segments past it dropped)
// rather than failing the open; the stats say what was cut. With
// Options.ReadOnly the directory is left untouched and the returned Log
// only answers metadata queries.
func Open(dir string, opts Options, replay func(seq uint64, payload []byte) error) (*Log, RecoveryStats, error) {
	opts = opts.withDefaults()
	var stats RecoveryStats
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, stats, fmt.Errorf("wal: create dir: %w", err)
		}
	}
	l := &Log{dir: dir, opts: opts}
	l.idle = sync.NewCond(&l.qmu)

	segs, err := listSegments(dir)
	if err != nil {
		return nil, stats, err
	}
	torn := -1 // index of the segment where replay hit a tear
	for i := range segs {
		seg := &segs[i]
		good, last, n, err := l.replaySegment(seg, replay)
		if err != nil {
			return nil, stats, err
		}
		stats.Entries += n
		if last > 0 {
			seg.lastSeq = last
			l.lastSeq.Store(last)
		}
		if good < seg.size { // tear inside this segment
			stats.Torn = true
			stats.TornBytes += seg.size - good
			torn = i
			if !opts.ReadOnly {
				if err := os.Truncate(seg.path, good); err != nil {
					return nil, stats, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
			}
			seg.size = good
			break
		}
	}
	if torn >= 0 && torn+1 < len(segs) {
		// Segments past a tear are unreachable history: an fsync reorder
		// persisted them ahead of the torn tail. Drop them.
		for _, seg := range segs[torn+1:] {
			stats.DroppedSegments++
			if !opts.ReadOnly {
				if err := os.Remove(seg.path); err != nil {
					return nil, stats, fmt.Errorf("wal: drop post-tear segment: %w", err)
				}
			}
		}
		segs = segs[:torn+1]
	}
	l.segments = segs

	if opts.ReadOnly {
		l.closed = true
		return l, stats, nil
	}
	if err := l.openActive(); err != nil {
		return nil, stats, err
	}
	return l, stats, nil
}

func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		first, ok := parseSegName(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: stat segment: %w", err)
		}
		segs = append(segs, segment{
			path:     filepath.Join(dir, e.Name()),
			firstSeq: first,
			size:     info.Size(),
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// replaySegment scans one segment, invoking replay per intact entry.
// It returns the byte offset of the last intact entry boundary, the
// last seq replayed (0 when none) and the entry count.
func (l *Log) replaySegment(seg *segment, replay func(uint64, []byte) error) (good int64, last uint64, n int, err error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	off := 0
	for {
		if len(data)-off < headerSize {
			break // clean end, or torn header
		}
		length := binary.BigEndian.Uint32(data[off:])
		crc := binary.BigEndian.Uint32(data[off+4:])
		if length > MaxEntry || len(data)-off-headerSize < int(length) {
			break // torn or garbage length
		}
		body := data[off+8 : off+headerSize+int(length)] // seq bytes + payload
		if crc32.ChecksumIEEE(body) != crc {
			break // torn write or bit rot: stop here
		}
		seq := binary.BigEndian.Uint64(data[off+8:])
		payload := data[off+headerSize : off+headerSize+int(length)]
		if replay != nil {
			if err := replay(seq, payload); err != nil {
				return 0, 0, 0, fmt.Errorf("wal: replay entry seq %d: %w", seq, err)
			}
		}
		last = seq
		n++
		off += headerSize + int(length)
	}
	return int64(off), last, n, nil
}

// openActive opens the last segment for append, or creates the first.
func (l *Log) openActive() error {
	if len(l.segments) == 0 || l.segments[len(l.segments)-1].size >= l.opts.SegmentBytes {
		return l.rollLocked()
	}
	seg := &l.segments[len(l.segments)-1]
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	l.active = f
	l.actSize = seg.size
	l.actSeg = len(l.segments) - 1
	return nil
}

// rollLocked closes the active segment and starts a new one named after
// the next sequence number. Callers hold mu (or are single-threaded in
// Open).
func (l *Log) rollLocked() error {
	if l.active != nil {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: sync on roll: %w", err)
		}
		l.syncs.Add(1)
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: close on roll: %w", err)
		}
	}
	first := l.lastSeq.Load() + 1
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.segments = append(l.segments, segment{path: path, firstSeq: first})
	l.active = f
	l.actSize = 0
	l.actSeg = len(l.segments) - 1
	return nil
}

func encodeEntry(seq uint64, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[8:], seq)
	copy(buf[headerSize:], payload)
	binary.BigEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

// Append durably logs one entry: when it returns nil, the entry has
// been written and fsynced and will survive a crash. Group commit is
// leader-based and waits on no clock: an Append that finds no commit in
// flight writes and fsyncs inline; Appends arriving during that fsync
// queue, and the first of them becomes the next leader and commits the
// whole queue (up to MaxBatch) with one fsync. seq must be strictly
// increasing across appends; the store's admission sequence provides
// that.
func (l *Log) Append(seq uint64, payload []byte) error {
	if len(payload) > MaxEntry {
		return fmt.Errorf("wal: entry %d bytes exceeds MaxEntry", len(payload))
	}
	req := &appendReq{seq: seq, payload: payload}
	l.qmu.Lock()
	if l.closed {
		l.qmu.Unlock()
		return ErrClosed
	}
	l.queue = append(l.queue, req)
	if l.committing {
		req.wake = make(chan struct{}, 1)
		l.qmu.Unlock()
		<-req.wake
		if req.done {
			return req.err
		}
		// Handed leadership: committing is still set, req is queue[0].
		l.qmu.Lock()
	}
	l.committing = true
	n := min(len(l.queue), l.opts.MaxBatch)
	batch := l.queue[:n:n]
	l.queue = l.queue[n:]
	l.qmu.Unlock()

	l.mu.Lock()
	err := l.commitLocked(batch)
	l.mu.Unlock()

	l.qmu.Lock()
	var next *appendReq
	if len(l.queue) > 0 {
		next = l.queue[0]
	} else {
		l.queue = nil // release the drained backing array
		l.committing = false
		l.idle.Broadcast()
	}
	l.qmu.Unlock()
	for _, r := range batch[1:] {
		r.done, r.err = true, err
		r.wake <- struct{}{}
	}
	if next != nil {
		next.wake <- struct{}{}
	}
	return err
}

// commitLocked writes and fsyncs a batch under mu.
func (l *Log) commitLocked(batch []*appendReq) error {
	if l.active == nil {
		return ErrClosed
	}
	for _, req := range batch {
		buf := encodeEntry(req.seq, req.payload)
		if _, err := l.active.Write(buf); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		l.actSize += int64(len(buf))
		l.segments[l.actSeg].size = l.actSize
		l.segments[l.actSeg].lastSeq = req.seq
		l.lastSeq.Store(req.seq)
		l.appends.Add(1)
	}
	if l.syncHook != nil {
		l.syncHook()
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	if l.actSize >= l.opts.SegmentBytes {
		return l.rollLocked()
	}
	return nil
}

// Compact removes segments fully covered by a snapshot at coveredSeq:
// every entry in them has seq <= coveredSeq and is re-creatable from the
// snapshot. The active segment is never removed.
func (l *Log) Compact(coveredSeq uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segments[:0]
	for i := range l.segments {
		seg := l.segments[i]
		if i != l.actSeg && seg.lastSeq > 0 && seg.lastSeq <= coveredSeq {
			if err := os.Remove(seg.path); err != nil {
				return removed, fmt.Errorf("wal: compact: %w", err)
			}
			removed++
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	l.actSeg = len(l.segments) - 1
	return removed, nil
}

// stop refuses new appends; false when the log was already closed.
func (l *Log) stop() bool {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.closed {
		return false
	}
	l.closed = true
	return true
}

// settle waits out the commit chain: after stop, every Append queued
// before it has been committed or failed by the time settle returns.
func (l *Log) settle() {
	l.qmu.Lock()
	for l.committing {
		l.idle.Wait()
	}
	l.qmu.Unlock()
}

// Close commits every queued append, then fsyncs and closes the active
// segment. Idempotent.
func (l *Log) Close() error {
	if !l.stop() {
		return nil
	}
	l.settle()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	l.syncs.Add(1)
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// Abort simulates a crash for harnesses: the file descriptor is closed
// with no flush and no sync, so any batch not yet acknowledged is torn
// exactly the way a kill -9 would tear it — its Appends return
// ErrClosed. Acknowledged entries are already on disk and unaffected.
func (l *Log) Abort() {
	if !l.stop() {
		return
	}
	// Close the descriptor before settling, so batches still queued fail
	// instead of committing.
	l.mu.Lock()
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.mu.Unlock()
	l.settle()
}

// LastSeq is the highest sequence number durably appended or replayed.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

// FirstSeq is the first sequence number the log still retains (the
// oldest segment's name), or 0 when the log holds no segments. A
// caller wanting to stream from seq s needs FirstSeq() <= s+1 — beyond
// that, compaction has moved the history into a snapshot.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) == 0 {
		return 0
	}
	return l.segments[0].firstSeq
}

// IterateFrom streams every intact retained entry with seq > fromSeq,
// in order, to fn — the read side of WAL shipping: a primary feeds a
// freshly attached follower its backlog from here before switching to
// live records. The segment list and committed sizes are captured
// under the log's lock, then the files are read without it, so
// iteration does not stall concurrent appends; entries appended after
// the capture are simply not part of this pass. Callers that need a
// consistent cut (no admissions between backlog and live stream)
// serialize against Append themselves — the store's admission gate
// does exactly that. Returns the entry count delivered.
func (l *Log) IterateFrom(fromSeq uint64, fn func(seq uint64, payload []byte) error) (int, error) {
	l.mu.Lock()
	segs := make([]segment, len(l.segments))
	copy(segs, l.segments)
	l.mu.Unlock()

	n := 0
	for i := range segs {
		seg := &segs[i]
		if seg.lastSeq > 0 && seg.lastSeq <= fromSeq {
			continue // fully below the requested range
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return n, fmt.Errorf("wal: iterate segment: %w", err)
		}
		// Bound the scan to the size committed at capture time: bytes past
		// it may belong to an entry still being written.
		if int64(len(data)) > seg.size {
			data = data[:seg.size]
		}
		off := 0
		for {
			if len(data)-off < headerSize {
				break
			}
			length := binary.BigEndian.Uint32(data[off:])
			crc := binary.BigEndian.Uint32(data[off+4:])
			if length > MaxEntry || len(data)-off-headerSize < int(length) {
				break
			}
			body := data[off+8 : off+headerSize+int(length)]
			if crc32.ChecksumIEEE(body) != crc {
				break
			}
			seq := binary.BigEndian.Uint64(data[off+8:])
			if seq > fromSeq {
				if err := fn(seq, data[off+headerSize:off+headerSize+int(length)]); err != nil {
					return n, err
				}
				n++
			}
			off += headerSize + int(length)
		}
	}
	return n, nil
}

// Segments counts on-disk segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Syncs counts fsync calls — the group-commit batching dividend is
// Appends()/Syncs().
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Appends counts entries durably written this session.
func (l *Log) Appends() uint64 { return l.appends.Load() }
