package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the preallocated span buffer; once full, further spans
// are counted as dropped instead of growing the slice mid-measurement.
const maxSpans = 1 << 18

// span is one timed call. Spans of one round or trial share op; replay
// marks a call the benchmark made directly into a layer with the op's
// input, after the op itself had finished.
type span struct {
	parent     int32 // span id, -1 for a root
	op         int32
	name       uint16 // index into tracer.names
	replay     bool
	start, end int64 // ns since the tracer was made
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs take the same code path. begin and end may
// be called from the two client goroutines of a mixed workload; the
// readers below run after both have stopped.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	names   []string
	nameIdx map[string]uint16
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans), nameIdx: make(map[string]uint16)}
}

// begin opens a span and returns its id (-1 when not recording).
func (t *tracer) begin(name string, parent, op int, replay bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	idx, ok := t.nameIdx[name]
	if !ok {
		idx = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = idx
	}
	t.spans = append(t.spans, span{parent: int32(parent), op: int32(op), name: idx, replay: replay,
		start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = int64(time.Since(t.t0))
}

// live and replayed run fn under a span and return how long it took
// (also when nothing is recorded).
func (t *tracer) live(name string, parent, op int, fn func()) time.Duration {
	return t.timed(name, parent, op, false, fn)
}

func (t *tracer) replayed(name string, parent, op int, fn func()) time.Duration {
	return t.timed(name, parent, op, true, fn)
}

func (t *tracer) timed(name string, parent, op int, replay bool, fn func()) time.Duration {
	id := t.begin(name, parent, op, replay)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// micros lists the durations, in µs, of every span with the given name.
func (t *tracer) micros(name string) []float64 {
	if t == nil {
		return nil
	}
	idx, ok := t.nameIdx[name]
	if !ok {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if t.spans[i].name == idx {
			out = append(out, float64(t.spans[i].end-t.spans[i].start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the
// parent's interval and overlapping children are not counted twice, so
// replay children (which run after the op they belong to) subtract
// nothing from it.
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], iv{spans[i].start, spans[i].end})
		}
	}
	out := make([]int64, len(spans))
	for i := range spans {
		s, e := spans[i].start, spans[i].end
		covered := int64(0)
		ivs := kids[int32(i)]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		cursor := s
		for _, k := range ivs {
			ks, ke := k.s, k.e
			if ks < cursor {
				ks = cursor
			}
			if ke > e {
				ke = e
			}
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
		}
		out[i] = (e - s) - covered
	}
	return out
}

// write dumps every span as one JSON array, one object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	w.WriteString("[\n")
	for i := range t.spans {
		s := &t.spans[i]
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, t.names[s.name])
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, `,"replay":`...)
		buf = strconv.AppendBool(buf, s.replay)
		buf = append(buf, '}')
		if i < len(t.spans)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		w.Write(buf)
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerRow is one line of a workload's layer ledger: the time one op
// spends in a layer's call, taken from the replay spans of that name.
type ledgerRow struct {
	span string // "<package>.<Func>"
	// onPath rows block the op's result and sum toward the end-to-end
	// median; the others run beside it or inside an onPath row and are
	// shown for size only, with note saying where they run.
	onPath bool
	note   string
}

// printLedger prints rows as time per op and share of the end-to-end
// median e2eUS, then the remainder under the given label, and returns
// that remainder. perOp maps a span name to its mean µs per op.
func printLedger(title string, e2eUS float64, rows []ledgerRow, perOp map[string]float64, remainder string) float64 {
	fmt.Printf("  ledger: %s (end-to-end %.1f µs)\n", title, e2eUS)
	fmt.Printf("    %-11s %-38s %12s %8s\n", "layer", "call", "µs/op", "share")
	attributed := 0.0
	for _, r := range rows {
		us := perOp[r.span]
		layer := r.span
		if i := strings.IndexByte(layer, '.'); i > 0 {
			layer = layer[:i]
		}
		mark := ""
		if r.onPath {
			attributed += us
		} else {
			mark = "  (not summed: " + r.note + ")"
		}
		fmt.Printf("    %-11s %-38s %12.1f %7.1f%%%s\n", layer, r.span, us, 100*us/e2eUS, mark)
	}
	un := e2eUS - attributed
	fmt.Printf("    %-11s %-38s %12.1f %7.1f%%\n", "-", "sum of the layers above", attributed, 100*attributed/e2eUS)
	fmt.Printf("    %-11s %-38s %12.1f %7.1f%%  %s\n", "-", "remainder", un, 100*un/e2eUS, remainder)
	fmt.Printf("    %-11s %-38s %12.1f %7.1f%%\n", "-", "total", attributed+un, 100.0)
	return un
}

// replayPerOp is the mean µs per replayed op of every replay span name:
// the total time under that name divided by the number of ops that have
// replay spans, so a call made 18 times per op, or once per 64 ops,
// weighs as it does in the workload.
func (t *tracer) replayPerOp() map[string]float64 {
	out := make(map[string]float64)
	ops := make(map[int32]bool)
	for i := range t.spans {
		if s := &t.spans[i]; s.replay {
			out[t.names[s.name]] += float64(s.end-s.start) / 1e3
			ops[s.op] = true
		}
	}
	for k := range out {
		out[k] /= float64(len(ops))
	}
	return out
}

// printLiveSpans lists the live spans of a traced window: calls per op,
// mean duration and mean self time (duration minus what child spans
// cover). root names the span that wraps one op.
func printLiveSpans(t *tracer, root string) {
	self := selfTimes(t.spans)
	type agg struct {
		n         int
		dur, self float64
	}
	byName := make(map[string]*agg)
	for i := range t.spans {
		s := &t.spans[i]
		if s.replay {
			continue
		}
		a := byName[t.names[s.name]]
		if a == nil {
			a = &agg{}
			byName[t.names[s.name]] = a
		}
		a.n++
		a.dur += float64(s.end-s.start) / 1e3
		a.self += float64(self[i]) / 1e3
	}
	ops := 1
	if a := byName[root]; a != nil {
		ops = a.n
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  live spans (%d ops)\n", ops)
	fmt.Printf("    %-38s %10s %12s %12s\n", "call", "calls/op", "mean µs", "self µs/op")
	for _, name := range names {
		a := byName[name]
		fmt.Printf("    %-38s %10.3f %12.1f %12.1f\n", name, float64(a.n)/float64(ops), a.dur/float64(a.n), a.self/float64(ops))
	}
}
