package gen

import (
	"math"
	"math/rand"
	"testing"
)

// checkSource reseeds got and fails t unless it gives the first 3 000
// Uint64s, and then Int63s, of rand.NewSource(seed).
func checkSource(t *testing.T, got *source, seed int64) {
	t.Helper()
	got.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for i := range 3000 {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 #%d = %#x, want %#x", seed, i, g, w)
		}
	}
	for i := range 100 {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 #%d = %d, want %d", seed, i, g, w)
		}
	}
}

// TestSeededSourceMatchesMathRand pins the jump-ahead seeding and the
// recovered cooked words to math/rand on the seeds its reduction
// modulo 2³¹−1 treats specially (zero, ±the modulus, which reduce to
// the substitute seed 89482311, and the extremes of int64) and on
// random ones, reseeding one source in place throughout.
func TestSeededSourceMatchesMathRand(t *testing.T) {
	var src source
	for _, seed := range []int64{0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1,
		1 << 31, -1 << 31, 89482311, math.MinInt64, math.MaxInt64} {
		checkSource(t, &src, seed)
	}
	rng := rand.New(rand.NewSource(29))
	for range 200 {
		checkSource(t, &src, int64(rng.Uint64()))
	}
}

// FuzzSeededSource compares the seeded source with rand.NewSource on
// fuzzed seeds.
func FuzzSeededSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, -int32max, 1 << 31, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSource(t, new(source), seed)
	})
}

// BenchmarkSeed is the cost of seeding one source.
func BenchmarkSeed(b *testing.B) {
	b.Run("jump-ahead", func(b *testing.B) {
		var s source
		for i := 0; b.Loop(); i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		s := rand.NewSource(0)
		for i := 0; b.Loop(); i++ {
			s.Seed(int64(i))
		}
	})
}
