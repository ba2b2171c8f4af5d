package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.Empty() {
		t.Fatal("new set is not empty")
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
	if got := s.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("zero-capacity set should be empty")
	}
	if s.Contains(0) {
		t.Fatal("zero-capacity set contains 0")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddContainsRemove(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("Contains out of range returned true")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	s := New(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(10) did not panic")
		}
	}()
	s.Add(10)
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(20, 1, 5, 19)
	want := []int{1, 5, 19}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := FromIndices(70, 1, 2, 3, 65)
	b := FromIndices(70, 3, 4, 65, 69)

	u := a.Clone()
	u.UnionWith(b)
	if got, want := u.String(), "{1, 2, 3, 4, 65, 69}"; got != want {
		t.Errorf("union = %s, want %s", got, want)
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got, want := i.String(), "{3, 65}"; got != want {
		t.Errorf("intersection = %s, want %s", got, want)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if got, want := d.String(), "{1, 2}"; got != want {
		t.Errorf("difference = %s, want %s", got, want)
	}
}

func TestIntersects(t *testing.T) {
	a := FromIndices(100, 10, 90)
	b := FromIndices(100, 20, 90)
	c := FromIndices(100, 30)
	if !a.Intersects(b) {
		t.Error("a.Intersects(b) = false")
	}
	if a.Intersects(c) {
		t.Error("a.Intersects(c) = true")
	}
}

func TestEqualAndClone(t *testing.T) {
	a := FromIndices(66, 0, 65)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Add(1)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(New(67)) {
		t.Fatal("sets with different capacities reported equal")
	}
}

func TestSubsetOf(t *testing.T) {
	a := FromIndices(40, 1, 2)
	b := FromIndices(40, 1, 2, 3)
	if !a.SubsetOf(b) {
		t.Error("a ⊆ b expected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a unexpected")
	}
	if !New(40).SubsetOf(a) {
		t.Error("∅ ⊆ a expected")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UnionWith with mismatched capacity did not panic")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestClear(t *testing.T) {
	s := FromIndices(10, 1, 2, 3)
	s.Clear()
	if !s.Empty() {
		t.Fatal("set not empty after Clear")
	}
	if s.Len() != 10 {
		t.Fatal("capacity changed by Clear")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(10, 1, 2, 3)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("seen = %v, want [1 2]", seen)
	}
}

func TestNext(t *testing.T) {
	s := FromIndices(200, 5, 64, 199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1}, {-3, 5},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if got := New(10).Next(0); got != -1 {
		t.Errorf("Next on empty = %d, want -1", got)
	}
}

func TestStringEmpty(t *testing.T) {
	if got := New(5).String(); got != "{}" {
		t.Errorf("String = %q, want {}", got)
	}
}

// TestQuickUnionCount checks |A ∪ B| + |A ∩ B| == |A| + |B| on random sets.
func TestQuickUnionCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(2) == 0 {
				b.Add(i)
			}
		}
		u := a.Clone()
		u.UnionWith(b)
		in := a.Clone()
		in.IntersectWith(b)
		return u.Count()+in.Count() == a.Count()+b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeMorgan checks A \ B == A ∩ complement(B) via element queries.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
			}
		}
		d := a.Clone()
		d.DifferenceWith(b)
		for i := 0; i < n; i++ {
			want := a.Contains(i) && !b.Contains(i)
			if d.Contains(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndicesRoundTrip checks FromIndices(Indices()) reproduces the set.
func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(256)
		a := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
		}
		return FromIndices(n, a.Indices()...).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectWith(b *testing.B) {
	n := 1024
	x, y := New(n), New(n)
	for i := 0; i < n; i += 3 {
		x.Add(i)
	}
	for i := 0; i < n; i += 5 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectWith(y)
		x.UnionWith(y)
	}
}

func TestResetReusesAndClears(t *testing.T) {
	s := New(128)
	s.Add(0)
	s.Add(127)
	s.Reset(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	if !s.Empty() {
		t.Fatalf("set not empty after Reset: %v", s)
	}
	// Growing past the original capacity must also yield an empty set.
	s.Add(99)
	s.Reset(300)
	if s.Len() != 300 || !s.Empty() {
		t.Fatalf("after growing Reset: Len=%d empty=%v", s.Len(), s.Empty())
	}
	s.Add(299)
	if !s.Contains(299) {
		t.Fatal("Add after Reset lost")
	}
}

func TestResetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(-1) did not panic")
		}
	}()
	New(4).Reset(-1)
}

func TestCopyFrom(t *testing.T) {
	src := FromIndices(130, 0, 64, 129)
	dst := New(2)
	dst.Add(1)
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom: got %v, want %v", dst, src)
	}
	// Must be an independent copy.
	dst.Remove(64)
	if !src.Contains(64) {
		t.Fatal("CopyFrom aliased the source")
	}
	// Shrinking copy into a larger destination must drop stale words.
	small := FromIndices(3, 2)
	dst.CopyFrom(small)
	if !dst.Equal(small) {
		t.Fatalf("shrinking CopyFrom: got %v, want %v", dst, small)
	}
}

func TestFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("n=%d: Count after Fill = %d", n, s.Count())
		}
		if n > 0 && (!s.Contains(0) || !s.Contains(n-1)) {
			t.Fatalf("n=%d: endpoints missing after Fill", n)
		}
	}
}

func TestSlabIndependence(t *testing.T) {
	sets := Slab(4, 70)
	if len(sets) != 4 {
		t.Fatalf("Slab returned %d sets", len(sets))
	}
	for i, s := range sets {
		if s.Len() != 70 || !s.Empty() {
			t.Fatalf("set %d: Len=%d empty=%v", i, s.Len(), s.Empty())
		}
	}
	// Mutations must not leak between neighbours.
	sets[1].Fill()
	if !sets[0].Empty() || !sets[2].Empty() {
		t.Fatal("Fill on slab set leaked into a neighbour")
	}
	sets[2].Add(69)
	if sets[3].Contains(69) {
		t.Fatal("Add on slab set leaked into a neighbour")
	}
	if Slab(0, 10) == nil {
		t.Fatal("Slab(0, n) should return an empty non-nil slice")
	}
}

func TestComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 63, 64, 65, 128} {
		s := New(n)
		s.Complement()
		if s.Count() != n {
			t.Fatalf("n=%d: complement of the empty set has Count %d", n, s.Count())
		}
		s.Clear()
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
		}
		c := s.Clone()
		c.Complement()
		if c.Count() != n-s.Count() || c.Intersects(s) {
			t.Fatalf("n=%d: complement %v of %v", n, c, s)
		}
		c.Complement()
		if !c.Equal(s) {
			t.Fatalf("n=%d: complement twice gave %v, want %v", n, c, s)
		}
	}
}
