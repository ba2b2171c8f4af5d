package matching

import (
	"math/rand"
	"testing"
)

// bruteMax tries every injective row→column mapping (columns may exceed
// rows; surplus rows allowed onto a virtual 0 column when allowDummy).
func bruteMax(w [][]int64, allowDummy bool) int64 {
	r := len(w)
	if r == 0 {
		return 0
	}
	c := len(w[0])
	usedCol := make([]bool, c)
	best := int64(-1 << 62)
	var rec func(row int, sum int64)
	rec = func(row int, sum int64) {
		if row == r {
			if sum > best {
				best = sum
			}
			return
		}
		for j := 0; j < c; j++ {
			if !usedCol[j] {
				usedCol[j] = true
				rec(row+1, sum+w[row][j])
				usedCol[j] = false
			}
		}
		if allowDummy {
			rec(row+1, sum)
		}
	}
	rec(0, 0)
	return best
}

func randMatrix(rng *rand.Rand, r, c int, lo, hi int64) [][]int64 {
	w := make([][]int64, r)
	for i := range w {
		w[i] = make([]int64, c)
		for j := range w[i] {
			w[i][j] = lo + rng.Int63n(hi-lo+1)
		}
	}
	return w
}

func TestMinCostSmallKnown(t *testing.T) {
	a := [][]int64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	cost, assign := MinCostAssignment(a)
	if cost != 5 { // 1 + 2 + 2
		t.Fatalf("cost = %d, want 5", cost)
	}
	seen := map[int]bool{}
	var check int64
	for i, j := range assign {
		if seen[j] {
			t.Fatalf("column %d assigned twice", j)
		}
		seen[j] = true
		check += a[i][j]
	}
	if check != cost {
		t.Fatalf("assignment sums to %d, reported %d", check, cost)
	}
}

func TestMinCostRectangular(t *testing.T) {
	a := [][]int64{
		{10, 1, 10, 10},
		{10, 10, 2, 10},
	}
	cost, assign := MinCostAssignment(a)
	if cost != 3 {
		t.Fatalf("cost = %d, want 3", cost)
	}
	if assign[0] != 1 || assign[1] != 2 {
		t.Fatalf("assign = %v, want [1 2]", assign)
	}
}

func TestMinCostEmptyAndPanics(t *testing.T) {
	if cost, assign := MinCostAssignment(nil); cost != 0 || assign != nil {
		t.Fatal("empty input should be (0, nil)")
	}
	assertPanics(t, func() { MinCostAssignment([][]int64{{1}, {2}}) })      // rows > cols
	assertPanics(t, func() { MinCostAssignment([][]int64{{1, 2}, {3}}) })   // ragged
	assertPanics(t, func() { MaxWeightAssignment([][]int64{{1, 2}, {3}}) }) // ragged
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestMaxWeightMatchesBruteForceSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		w := randMatrix(rng, n, n, -50, 100)
		got, assign := MaxWeightAssignment(w)
		want := bruteMax(w, false)
		// With possible negative weights, leaving a row unassigned (dummy
		// column) may beat a full assignment; brute force with dummies is
		// the reference.
		wantDummy := bruteMax(w, true)
		if got != wantDummy {
			t.Fatalf("trial %d: got %d, brute(dummy) %d, brute(full) %d\n%v",
				trial, got, wantDummy, want, w)
		}
		seen := map[int]bool{}
		for _, j := range assign {
			if j == -1 {
				continue
			}
			if seen[j] {
				t.Fatalf("column %d used twice", j)
			}
			seen[j] = true
		}
	}
}

func TestMaxWeightNonNegativeEqualsFullAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		r := 1 + rng.Intn(5)
		c := r + rng.Intn(3)
		w := randMatrix(rng, r, c, 0, 100)
		got, _ := MaxWeightAssignment(w)
		if want := bruteMax(w, false); got != want {
			t.Fatalf("trial %d (%dx%d): got %d, want %d\n%v", trial, r, c, got, want, w)
		}
	}
}

// TestMaxWeightMoreRowsThanColumns exercises the dummy-column padding:
// surplus rows end up at -1 with weight 0.
func TestMaxWeightMoreRowsThanColumns(t *testing.T) {
	w := [][]int64{
		{5},
		{9},
		{7},
	}
	got, assign := MaxWeightAssignment(w)
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
	nAssigned := 0
	for i, j := range assign {
		if j == 0 {
			nAssigned++
			if w[i][0] != 9 {
				t.Fatalf("wrong row assigned: %v", assign)
			}
		} else if j != -1 {
			t.Fatalf("unexpected column %d", j)
		}
	}
	if nAssigned != 1 {
		t.Fatalf("assign = %v, want exactly one real assignment", assign)
	}
}

func TestMaxWeightScenarioShape(t *testing.T) {
	// Emulates the paper's s3 = {2,1,1} scenario over Table I:
	// rows are parts (sizes 2,1,1), columns tasks; w[part][task] = µ_task[size].
	mu := [][]int64{ // µ1..µ4 from Table I
		{3, 5, 6, 5},
		{4, 7, 0, 0},
		{6, 7, 9, 11},
		{5, 9, 12, 0},
	}
	parts := []int{2, 1, 1}
	w := make([][]int64, len(parts))
	for p, size := range parts {
		w[p] = make([]int64, len(mu))
		for i := range mu {
			w[p][i] = mu[i][size-1]
		}
	}
	got, _ := MaxWeightAssignment(w)
	if got != 19 { // µ4[2] + µ3[1] + µ2[1] = 9 + 6 + 4
		t.Fatalf("ρ[s3] = %d, want 19 (Table III)", got)
	}
}

func BenchmarkHungarian16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	w := randMatrix(rng, 16, 16, 0, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxWeightAssignment(w)
	}
}
