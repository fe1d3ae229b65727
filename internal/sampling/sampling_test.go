package sampling

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := NewAlias([]float64{1, -2}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewAlias should panic on error")
		}
	}()
	MustNewAlias(nil)
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := MustNewAlias(weights)
	if a.Len() != 4 || a.Total() != 10 {
		t.Fatalf("Len=%d Total=%g", a.Len(), a.Total())
	}
	rng := rand.New(rand.NewPCG(51, 1))
	const draws = 200_000
	counts := make([]int, 4)
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		got := float64(counts[i])
		// 4σ binomial tolerance
		sigma := math.Sqrt(draws * (w / 10) * (1 - w/10))
		if math.Abs(got-want) > 4*sigma {
			t.Errorf("outcome %d: %0.f draws, want %.0f ± %.0f", i, got, want, 4*sigma)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := MustNewAlias([]float64{0, 1, 0, 1})
	rng := rand.New(rand.NewPCG(52, 1))
	for i := 0; i < 10_000; i++ {
		if d := a.Draw(rng); d == 0 || d == 2 {
			t.Fatalf("drew zero-weight outcome %d", d)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := MustNewAlias([]float64{7})
	rng := rand.New(rand.NewPCG(53, 1))
	for i := 0; i < 100; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single outcome must always be drawn")
		}
	}
}

func TestUniformNoReplace(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 1))
	u := NewUniformNoReplace(10, rng)
	seen := map[int]bool{}
	for {
		v, ok := u.Next()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d drawn twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("drew %d distinct values, want 10", len(seen))
	}
	if u.Remaining() != 0 {
		t.Errorf("Remaining = %d", u.Remaining())
	}
	if _, ok := u.Next(); ok {
		t.Error("exhausted sampler should return false")
	}
}

func TestUniformNoReplaceUniformity(t *testing.T) {
	// first draw over n=5, many trials: each value ~equally often
	const trials = 50_000
	counts := make([]int, 5)
	rng := rand.New(rand.NewPCG(55, 1))
	for i := 0; i < trials; i++ {
		u := NewUniformNoReplace(5, rng)
		v, _ := u.Next()
		counts[v]++
	}
	want := float64(trials) / 5
	sigma := math.Sqrt(float64(trials) * 0.2 * 0.8)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 4*sigma {
			t.Errorf("value %d drawn %d times, want %.0f ± %.0f", v, c, want, 4*sigma)
		}
	}
}

func TestSampleK(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 1))
	pop := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s := SampleK(pop, 4, rng)
	if len(s) != 4 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate %d in sample", v)
		}
		seen[v] = true
		if v < 0 || v > 9 {
			t.Fatalf("out-of-population value %d", v)
		}
	}
	// k >= len returns a permutation of everything
	all := SampleK(pop, 20, rng)
	if len(all) != 10 {
		t.Fatalf("oversized k returned %d items", len(all))
	}
	// input must not be mutated
	for i, v := range pop {
		if v != i {
			t.Fatal("SampleK mutated the population")
		}
	}
}

func TestSampleKUniformity(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 1))
	const trials = 30_000
	counts := make([]int, 6)
	pop := []int{0, 1, 2, 3, 4, 5}
	for i := 0; i < trials; i++ {
		for _, v := range SampleK(pop, 2, rng) {
			counts[v]++
		}
	}
	want := float64(trials) * 2 / 6
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("value %d in sample %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestReservoir(t *testing.T) {
	rng := rand.New(rand.NewPCG(58, 1))
	r := NewReservoir[int](3, rng)
	for i := 0; i < 100; i++ {
		r.Offer(i)
	}
	if r.Seen() != 100 {
		t.Errorf("Seen = %d", r.Seen())
	}
	s := r.Sample()
	if len(s) != 3 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	// short stream: sample = whole stream
	r2 := NewReservoir[int](5, rng)
	r2.Offer(1)
	r2.Offer(2)
	if len(r2.Sample()) != 2 {
		t.Error("short stream should be kept whole")
	}
}

func TestReservoirUniformity(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 1))
	const trials = 20_000
	counts := make([]int, 10)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir[int](2, rng)
		for i := 0; i < 10; i++ {
			r.Offer(i)
		}
		for _, v := range r.Sample() {
			counts[v]++
		}
	}
	want := float64(trials) * 2 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("item %d kept %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewPCG(58, 1))
	for n := 1; n <= 9; n++ {
		for k := 1; k <= 11; k++ {
			got := SampleIndices(n, k, rng, nil)
			if want := min(k, n); len(got) != want {
				t.Fatalf("n=%d k=%d: %d indices, want %d", n, k, len(got), want)
			}
			seen := map[int]bool{}
			for _, i := range got {
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("n=%d k=%d: bad or repeated index in %v", n, k, got)
				}
				seen[i] = true
			}
		}
	}
	// k = 1 is exactly one IntN(n), and every call spends exactly
	// min(k, n) random numbers: the streams stay in lockstep.
	a, b := rand.New(rand.NewPCG(59, 1)), rand.New(rand.NewPCG(59, 1))
	for i := 0; i < 100; i++ {
		if got, want := SampleIndices(17, 1, a, nil)[0], b.IntN(17); got != want {
			t.Fatalf("k=1 draw %d = %d, IntN gave %d", i, got, want)
		}
		SampleIndices(17, 4, a, nil)
		for j := 0; j < 4; j++ {
			b.IntN(1) // one random number each
		}
		if a.Uint64() != b.Uint64() {
			t.Fatal("SampleIndices(17, 4) did not use exactly 4 random numbers")
		}
	}
}

// Ordered samples must be uniform over the n·(n−1)·…·(n−k+1) ordered
// tuples, not merely over subsets: batched importance sampling uses the
// first index of a batch as an unbiased draw.
func TestSampleIndicesOrderedUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 1))
	const n, k, trials = 5, 3, 60_000
	counts := map[[k]int]int{}
	var dst []int
	for i := 0; i < trials; i++ {
		dst = SampleIndices(n, k, rng, dst)
		counts[[k]int(dst)]++
	}
	if len(counts) != 60 {
		t.Fatalf("saw %d ordered triples, want all 60", len(counts))
	}
	want := float64(trials) / 60
	sigma := math.Sqrt(float64(trials) * (1.0 / 60) * (59.0 / 60))
	for tuple, c := range counts {
		if math.Abs(float64(c)-want) > 5*sigma {
			t.Errorf("tuple %v drawn %d times, want %.0f ± %.0f", tuple, c, want, 5*sigma)
		}
	}
}
