package partition

import "testing"

// p(m) reference values, OEIS A000041.
var knownCounts = map[int]int64{
	0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22,
	9: 30, 10: 42, 11: 56, 12: 77, 13: 101, 14: 135, 15: 176,
	16: 231, 20: 627, 30: 5604, 50: 204226, 100: 190569292,
}

func TestCountKnownValues(t *testing.T) {
	for m, want := range knownCounts {
		if got := Count(m); got != want {
			t.Errorf("Count(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestCountNegative(t *testing.T) {
	if got := Count(-1); got != 0 {
		t.Errorf("Count(-1) = %d, want 0", got)
	}
}

func TestAllM4MatchesTableII(t *testing.T) {
	// Table II of the paper: e_4 = {s1..s5} with the listed shapes.
	got := All(4)
	want := []Partition{{4}, {3, 1}, {2, 2}, {2, 1, 1}, {1, 1, 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("len(All(4)) = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("All(4)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Cardinalities |s_l| as in Table II.
	sizes := map[string]int{"{1, 1, 1, 1}": 4, "{2, 2}": 2, "{2, 1, 1}": 3, "{3, 1}": 2, "{4}": 1}
	for _, p := range got {
		if want, ok := sizes[p.String()]; !ok || p.Size() != want {
			t.Errorf("scenario %v has size %d, want %d", p, p.Size(), want)
		}
	}
}

func TestAllCountsAgreeWithPentagonal(t *testing.T) {
	for m := 0; m <= 20; m++ {
		if got, want := int64(len(All(m))), Count(m); got != want {
			t.Errorf("len(All(%d)) = %d, Count(%d) = %d", m, got, m, want)
		}
	}
}

func TestAllPartsSumToM(t *testing.T) {
	for m := 1; m <= 16; m++ {
		for _, p := range All(m) {
			if p.Sum() != m {
				t.Errorf("partition %v of %d sums to %d", p, m, p.Sum())
			}
			for i := 1; i < len(p); i++ {
				if p[i] > p[i-1] {
					t.Errorf("partition %v not non-increasing", p)
				}
			}
			for _, v := range p {
				if v < 1 {
					t.Errorf("partition %v has non-positive part", p)
				}
			}
		}
	}
}

func TestAllDistinct(t *testing.T) {
	for m := 1; m <= 14; m++ {
		seen := map[string]bool{}
		for _, p := range All(m) {
			s := p.String()
			if seen[s] {
				t.Errorf("duplicate partition %s of %d", s, m)
			}
			seen[s] = true
		}
	}
}

func TestAllZero(t *testing.T) {
	ps := All(0)
	if len(ps) != 1 || len(ps[0]) != 0 {
		t.Fatalf("All(0) = %v, want one empty partition", ps)
	}
}

func TestAllNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("All(-1) did not panic")
		}
	}()
	All(-1)
}

func TestCloneIndependent(t *testing.T) {
	p := Partition{2, 1}
	c := p.Clone()
	c[0] = 9
	if p[0] != 2 {
		t.Fatal("Clone shares backing array")
	}
}

func BenchmarkAll16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(All(16)) != 231 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkCount100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if Count(100) != 190569292 {
			b.Fatal("wrong count")
		}
	}
}
