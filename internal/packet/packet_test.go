package packet

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hawkeye/internal/sim"
)

func tupleA() FiveTuple {
	return FiveTuple{SrcIP: 0x0A000001, DstIP: 0x0A000002, SrcPort: 4791, DstPort: 4791, Proto: ProtoUDP}
}

func TestFiveTupleHashStable(t *testing.T) {
	a := tupleA()
	if a.Hash() != a.Hash() {
		t.Fatal("hash not stable")
	}
	b := a
	b.SrcPort++
	if a.Hash() == b.Hash() {
		t.Fatal("trivially different tuples collided (suspicious hash)")
	}
}

func TestFiveTupleXOREquals(t *testing.T) {
	a := tupleA()
	if !a.XOREquals(a) {
		t.Fatal("tuple does not XOR-equal itself")
	}
	b := a
	b.DstIP ^= 1
	if a.XOREquals(b) {
		t.Fatal("different tuples XOR-equal")
	}
}

func TestFiveTupleXOREqualsMatchesEquality(t *testing.T) {
	f := func(a, b FiveTuple) bool {
		return a.XOREquals(b) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFiveTupleReverse(t *testing.T) {
	a := tupleA()
	r := a.Reverse()
	if r.SrcIP != a.DstIP || r.DstIP != a.SrcIP || r.SrcPort != a.DstPort || r.DstPort != a.SrcPort {
		t.Fatalf("Reverse mangled tuple: %v -> %v", a, r)
	}
	if rr := r.Reverse(); rr != a {
		t.Fatalf("double Reverse != identity: %v", rr)
	}
}

func TestFiveTupleIsZero(t *testing.T) {
	var z FiveTuple
	if !z.IsZero() {
		t.Fatal("zero tuple not IsZero")
	}
	if tupleA().IsZero() {
		t.Fatal("non-zero tuple IsZero")
	}
}

// TestSortByString: the keyed sort orders tuples exactly as comparing
// their String forms does, including where the two disagree with
// numeric order ("10.0.0.10" sorts before "10.0.0.9").
func TestSortByString(t *testing.T) {
	prop := func(ts []FiveTuple) bool {
		want := append([]FiveTuple(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
		SortByString(ts)
		return slices.Equal(ts, want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	ts := []FiveTuple{{SrcIP: 0x0A000009}, {SrcIP: 0x0A00000A}}
	SortByString(ts)
	if ts[0].SrcIP != 0x0A00000A {
		t.Fatalf("order %v, want 10.0.0.10 first", ts)
	}
}

func TestPFCFrameRoundTrip(t *testing.T) {
	f := func(enable uint8, q0, q3, q7 uint16) bool {
		in := &PFCFrame{ClassEnable: enable}
		in.Quanta[0], in.Quanta[3], in.Quanta[7] = q0, q3, q7
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		var out PFCFrame
		if err := out.UnmarshalBinary(b); err != nil {
			return false
		}
		return out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPFCFrameRejectsBadInput(t *testing.T) {
	var f PFCFrame
	if err := f.UnmarshalBinary(make([]byte, 5)); err == nil {
		t.Fatal("short frame accepted")
	}
	b := make([]byte, pfcWireLen)
	if err := f.UnmarshalBinary(b); err == nil {
		t.Fatal("wrong opcode accepted")
	}
}

func TestPauseResumeSemantics(t *testing.T) {
	p := NewPause(ClassLossless, 100)
	if !p.Paused(ClassLossless) {
		t.Fatal("pause frame not Paused for its class")
	}
	if p.Paused(ClassControl) {
		t.Fatal("pause frame Paused for unrelated class")
	}
	if p.Resumes(ClassLossless) {
		t.Fatal("pause frame Resumes")
	}
	r := NewResume(ClassLossless)
	if !r.Resumes(ClassLossless) {
		t.Fatal("resume frame not Resumes")
	}
	if r.Paused(ClassLossless) {
		t.Fatal("resume frame Paused")
	}
}

func TestPauseDuration(t *testing.T) {
	// At 100 Gbps one quantum is 512/100e9 s = 5.12 ns.
	d := PauseDuration(1000, 100e9)
	if d != sim.Time(5120) {
		t.Fatalf("PauseDuration(1000, 100G) = %v, want 5120ns", d)
	}
	if q := QuantumDuration(100e9); q != 5 { // truncated to ns
		t.Fatalf("QuantumDuration = %v, want 5ns", q)
	}
}

func TestPollingHeaderRoundTrip(t *testing.T) {
	f := func(flag uint8, victim FiveTuple, id uint32, ttl uint8) bool {
		in := &PollingHeader{Flag: PollingFlag(flag % 4), Victim: victim, DiagID: id, HopsLow: ttl}
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		if len(b) != PollingHeaderLen {
			return false
		}
		var out PollingHeader
		if err := out.UnmarshalBinary(b); err != nil {
			return false
		}
		return out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPollingHeaderRejectsBadFlag(t *testing.T) {
	h := &PollingHeader{Flag: 7}
	if _, err := h.MarshalBinary(); err == nil {
		t.Fatal("bad flag marshalled")
	}
	b := make([]byte, PollingHeaderLen)
	b[0] = 9
	var out PollingHeader
	if err := out.UnmarshalBinary(b); err == nil {
		t.Fatal("bad flag unmarshalled")
	}
	if err := out.UnmarshalBinary(b[:3]); err == nil {
		t.Fatal("short header unmarshalled")
	}
}

func TestPollingFlagBits(t *testing.T) {
	cases := []struct {
		flag          PollingFlag
		victim, trace bool
	}{
		{FlagUseless, false, false},
		{FlagVictimPath, true, false},
		{FlagPFCOnly, false, true},
		{FlagBoth, true, true},
	}
	for _, c := range cases {
		if c.flag.TraceVictim() != c.victim || c.flag.TracePFC() != c.trace {
			t.Errorf("flag %v: TraceVictim=%v TracePFC=%v, want %v/%v",
				c.flag, c.flag.TraceVictim(), c.flag.TracePFC(), c.victim, c.trace)
		}
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{
		Type: TypePolling,
		Poll: &PollingHeader{Flag: FlagVictimPath, Victim: tupleA(), DiagID: 7},
		PFC:  NewPause(3, 10),
	}
	q := p.Clone()
	q.Poll.Flag = FlagBoth
	q.PFC.Quanta[3] = 99
	if p.Poll.Flag != FlagVictimPath || p.PFC.Quanta[3] != 10 {
		t.Fatal("Clone shares kind-specific payloads")
	}
}

func TestTypeIsControl(t *testing.T) {
	if TypeData.IsControl() || TypePFC.IsControl() {
		t.Fatal("data/PFC misclassified as control")
	}
	for _, ty := range []Type{TypeACK, TypeCNP, TypeNACK, TypePolling, TypeReport} {
		if !ty.IsControl() {
			t.Fatalf("%v not classified as control", ty)
		}
	}
}

func TestStringsDoNotPanic(t *testing.T) {
	_ = tupleA().String()
	_ = NewPause(3, 5).String()
	_ = (&PollingHeader{Flag: FlagBoth, Victim: tupleA()}).String()
	_ = (&Packet{Type: TypeData, Flow: tupleA()}).String()
	_ = (&Packet{Type: TypePFC, PFC: NewPause(1, 2)}).String()
	_ = (&Packet{Type: TypePolling, Poll: &PollingHeader{}}).String()
	_ = Type(99).String()
	_ = PollingFlag(9).String()
}
