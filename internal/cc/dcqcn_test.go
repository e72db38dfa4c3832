package cc

import (
	"testing"
	"testing/quick"
)

const lineRate = 100e9

func TestStartsAtLineRate(t *testing.T) {
	s := NewState(lineRate)
	if s.Rate() != 100e9 {
		t.Fatalf("initial rate %v, want line rate", s.Rate())
	}
}

func TestCNPCutsRate(t *testing.T) {
	s := NewState(lineRate)
	before := s.Rate()
	s.OnCNP()
	if s.Rate() >= before {
		t.Fatalf("rate did not drop on CNP: %v -> %v", before, s.Rate())
	}
	// With alpha=1 initially the first cut halves the rate.
	if got := s.Rate(); got != before/2 {
		t.Fatalf("first cut = %v, want %v", got, before/2)
	}
	if s.TargetRate() != before {
		t.Fatalf("target %v, want previous rate %v", s.TargetRate(), before)
	}
}

func TestRepeatedCNPsRespectFloor(t *testing.T) {
	s := NewState(lineRate)
	for i := 0; i < 200; i++ {
		s.OnCNP()
	}
	if s.Rate() < minRate {
		t.Fatalf("rate %v below floor %v", s.Rate(), minRate)
	}
}

func TestFastRecoveryApproachesTarget(t *testing.T) {
	s := NewState(lineRate)
	s.OnCNP()
	target := s.TargetRate()
	prevGap := target - s.Rate()
	for i := 0; i < fastRecovery; i++ {
		s.OnRateTimer()
		gap := target - s.Rate()
		if gap < 0 || gap > prevGap {
			t.Fatalf("fast recovery not closing gap: %v -> %v", prevGap, gap)
		}
		prevGap = gap
	}
	// After F stages the rate should be within 5% of the target.
	if s.Rate() < 0.95*target {
		t.Fatalf("after fast recovery rate %v, target %v", s.Rate(), target)
	}
}

func TestAdditiveThenHyperIncrease(t *testing.T) {
	s := NewState(lineRate)
	s.OnCNP()
	s.OnCNP()
	// Burn through fast recovery.
	for i := 0; i < fastRecovery; i++ {
		s.OnRateTimer()
	}
	t1 := s.TargetRate()
	s.OnRateTimer()
	if s.TargetRate() != t1+rai {
		t.Fatalf("additive increase moved target by %v, want %v", s.TargetRate()-t1, rai)
	}
	for i := 0; i < fastRecovery; i++ {
		s.OnRateTimer()
	}
	t2 := s.TargetRate()
	s.OnRateTimer()
	if got := s.TargetRate() - t2; got != rhai {
		t.Fatalf("hyper increase moved target by %v, want %v", got, rhai)
	}
}

func TestRateNeverExceedsLine(t *testing.T) {
	s := NewState(lineRate)
	s.OnCNP()
	for i := 0; i < 10000; i++ {
		s.OnRateTimer()
		if s.Rate() > lineRate || s.TargetRate() > lineRate {
			t.Fatalf("rate/target exceeded line rate at step %d: %v/%v", i, s.Rate(), s.TargetRate())
		}
	}
}

func TestAlphaDecaysWithoutCNP(t *testing.T) {
	s := NewState(lineRate)
	s.OnCNP()
	a0 := s.Alpha()
	s.OnAlphaTimer() // CNP arrived this period: no decay
	if s.Alpha() != a0 {
		t.Fatalf("alpha decayed despite CNP: %v -> %v", a0, s.Alpha())
	}
	s.OnAlphaTimer()
	if s.Alpha() >= a0 {
		t.Fatalf("alpha did not decay: %v -> %v", a0, s.Alpha())
	}
}

func TestLaterCutsAreGentler(t *testing.T) {
	// After alpha decays, a CNP cuts less than half.
	s := NewState(lineRate)
	s.OnCNP()
	for i := 0; i < 50; i++ {
		s.OnAlphaTimer()
	}
	before := s.Rate()
	s.OnCNP()
	if s.Rate() <= before*0.5 {
		t.Fatalf("cut with small alpha too aggressive: %v -> %v", before, s.Rate())
	}
}

func TestRateAlwaysPositiveProperty(t *testing.T) {
	f := func(ops []bool) bool {
		s := NewState(lineRate)
		for _, cut := range ops {
			if cut {
				s.OnCNP()
			} else {
				s.OnRateTimer()
			}
			if s.Rate() <= 0 || s.Rate() > lineRate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
