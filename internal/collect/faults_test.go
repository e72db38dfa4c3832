package collect

import (
	"testing"

	"hawkeye/internal/sim"
	"hawkeye/internal/topo"
)

// scriptedFaults drops deliveries per a fixed script and adds constant
// lag, so the assertions are exact rather than probabilistic.
type scriptedFaults struct {
	drop []bool
	next int
	lag  sim.Time

	dropped int
}

func (f *scriptedFaults) DropDelivery(topo.NodeID) bool {
	if f.next >= len(f.drop) {
		return false
	}
	d := f.drop[f.next]
	f.next++
	if d {
		f.dropped++
	}
	return d
}

func (f *scriptedFaults) CollectLatency(topo.NodeID) sim.Time { return f.lag }

// TestBatchLossAccounting: injected delivery drops must reconcile
// exactly — collections split into delivered plus dropped, with nothing
// double-counted and the delivered batches untouched.
func TestBatchLossAccounting(t *testing.T) {
	eng := sim.NewEngine()
	tel := newTel(t, eng)
	feed(tel, 10, 0)
	cfg := DefaultConfig()
	c := NewCollector(eng, cfg)
	faults := &scriptedFaults{drop: []bool{false, true, false, true, true}}
	c.Faults = faults

	var got []Delivery
	c.OnDelivery = func(d Delivery) { got = append(got, d) }
	// Five collections from five switches (distinct IDs dodge the dedup
	// interval; the telemetry content does not matter for accounting).
	for i := 0; i < 5; i++ {
		c.MirrorPolling(topo.NodeID(i+1), tel, hdr(uint32(i+1)), 0)
	}
	eng.RunAll()

	st := c.Stats()
	if st.Collections != 5 {
		t.Fatalf("collections = %d", st.Collections)
	}
	if st.DroppedDeliveries != faults.dropped || faults.dropped != 3 {
		t.Fatalf("dropped = %d, injected %d", st.DroppedDeliveries, faults.dropped)
	}
	if st.Delivered() != len(got) || len(got) != 2 {
		t.Fatalf("delivered = %d, OnDelivery saw %d", st.Delivered(), len(got))
	}
	if st.Delivered()+st.DroppedDeliveries != st.Collections {
		t.Fatalf("accounting does not reconcile: %+v", st)
	}
	// The overhead counters account for every register sync — including
	// batches later lost in transit (the sync itself happened).
	if st.ReportBytes == 0 || st.ReportPackets < 5 {
		t.Fatalf("overhead counters missed collections: %+v", st)
	}
}

// TestZeroFilteringUnderBatchLoss: the batches that do get through must
// still be zero-filtered and MTU-batched correctly — fault injection on
// the delivery path must not corrupt report assembly.
func TestZeroFilteringUnderBatchLoss(t *testing.T) {
	eng := sim.NewEngine()
	tel := newTel(t, eng)
	feed(tel, 25, 0)
	cfg := DefaultConfig()
	cfg.ReportMTU = 256 // small MTU so batching has real work to do
	c := NewCollector(eng, cfg)
	c.Faults = &scriptedFaults{drop: []bool{true, false}}

	var got []Delivery
	c.OnDelivery = func(d Delivery) { got = append(got, d) }
	c.MirrorPolling(1, tel, hdr(1), 0)
	c.MirrorPolling(2, tel, hdr(2), 0)
	eng.RunAll()

	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1 (1 of 2 dropped)", len(got))
	}
	d := got[0]
	// Zero-filtering: every record in the report carries real counts.
	for _, ep := range d.Report.Epochs {
		for _, f := range ep.Flows {
			if f.PktCount == 0 {
				t.Fatalf("zero flow record survived filtering: %+v", f)
			}
		}
		for _, p := range ep.Ports {
			if p.PktCount == 0 {
				t.Fatalf("zero port record survived filtering: %+v", p)
			}
		}
	}
	// MTU batching: the accounted bytes are the wire encoding, split into
	// ceil(bytes/MTU) packets.
	if d.Bytes != d.Report.WireSize() {
		t.Fatalf("delivery bytes %d != wire size %d", d.Bytes, d.Report.WireSize())
	}
	wantPkts := (d.Bytes + cfg.ReportMTU - 1) / cfg.ReportMTU
	if d.Packets != wantPkts {
		t.Fatalf("packets = %d, want %d for %d bytes at MTU %d", d.Packets, wantPkts, d.Bytes, cfg.ReportMTU)
	}
	if d.Packets < 2 {
		t.Fatalf("test did not exercise batching: %d bytes fit one %d-byte MTU", d.Bytes, cfg.ReportMTU)
	}
}

// TestControllerLagStretchesDelivery: injected lag must delay arrival by
// exactly the injected amount and land in LagSum.
func TestControllerLagStretchesDelivery(t *testing.T) {
	eng := sim.NewEngine()
	tel := newTel(t, eng)
	feed(tel, 5, 0)
	cfg := DefaultConfig()
	c := NewCollector(eng, cfg)
	lag := 7 * sim.Millisecond
	c.Faults = &scriptedFaults{lag: lag}

	var got []Delivery
	c.OnDelivery = func(d Delivery) { got = append(got, d) }
	c.MirrorPolling(1, tel, hdr(1), 0)
	eng.RunAll()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	d := got[0]
	base := cfg.BaseLatency + sim.Time(len(d.Report.Epochs))*cfg.PerEpochLatency
	if lat := d.Arrived - d.Started; lat != base+lag {
		t.Fatalf("latency = %v, want %v + %v lag", lat, base, lag)
	}
	if c.Stats().LagSum != lag {
		t.Fatalf("LagSum = %v", c.Stats().LagSum)
	}
}

// TestDroppedDeliveryStillDedups documents the nastiest degraded mode:
// the switch CPU synced and believes it reported, so re-polls inside the
// dedup interval are absorbed even though the analyzer got nothing.
func TestDroppedDeliveryStillDedups(t *testing.T) {
	eng := sim.NewEngine()
	tel := newTel(t, eng)
	feed(tel, 5, 0)
	cfg := DefaultConfig()
	c := NewCollector(eng, cfg)
	c.Faults = &scriptedFaults{drop: []bool{true}}

	delivered := 0
	c.OnDelivery = func(Delivery) { delivered++ }
	c.MirrorPolling(1, tel, hdr(1), 0)
	eng.After(Interval/2, func() { c.MirrorPolling(1, tel, hdr(2), 0) })
	eng.RunAll()

	st := c.Stats()
	if delivered != 0 {
		t.Fatalf("dropped delivery arrived anyway")
	}
	if st.Collections != 1 || st.DedupHits != 1 {
		t.Fatalf("re-poll was not deduped: %+v", st)
	}
	// Outside the interval the switch re-collects and the analyzer
	// finally hears about it.
	eng.After(Interval+sim.Microsecond, func() { c.MirrorPolling(1, tel, hdr(3), 0) })
	eng.RunAll()
	if delivered != 1 || c.Stats().Collections != 2 {
		t.Fatalf("recovery collection missing: delivered=%d %+v", delivered, c.Stats())
	}
}
