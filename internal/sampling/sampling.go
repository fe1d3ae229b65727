// Package sampling provides the random-selection primitives behind the
// paper's reference-node samplers: Walker's alias method for the
// weighted event-node draws of RejectSamp/Importance sampling (step 1:
// "select a node v ∈ Va∪b with probability |V^h_v|/Nsum"), uniform
// without-replacement pickers for Whole-graph sampling, and reservoir
// sampling for drawing from streams of unknown length.
package sampling

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// Alias is a Walker alias table: O(n) construction, O(1) draws from an
// arbitrary discrete distribution. This makes the per-iteration cost of
// Importance sampling (Algorithm 2, line 4) independent of |Va∪b|.
type Alias struct {
	prob  []float64
	alias []int32
	total float64
}

// NewAlias builds an alias table over weights (all ≥ 0, at least one
// positive). Draw returns index i with probability weights[i]/Σweights.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty weight vector")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sampling: negative weight %g at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("sampling: all weights are zero")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		total: total,
	}
	// scaled[i] = weights[i] * n / total; partition into small (<1) and
	// large (≥1) stacks and pair them.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small { // numerical leftovers
		a.prob[i] = 1
	}
	return a, nil
}

// MustNewAlias is NewAlias that panics on error.
func MustNewAlias(weights []float64) *Alias {
	a, err := NewAlias(weights)
	if err != nil {
		panic(err)
	}
	return a
}

// Draw returns a random index distributed proportionally to the
// construction weights.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.IntN(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// Total returns the sum of the construction weights (the paper's Nsum
// when weights are the |V^h_v|).
func (a *Alias) Total() float64 { return a.total }

// UniformNoReplace yields up to k distinct integers uniformly from
// [0, n) using a partial Fisher–Yates shuffle over an explicit index
// slice: O(n) space, O(k) time after setup. It backs Whole-graph
// sampling's "select another node from the remaining nodes" loop
// (Algorithm 3).
type UniformNoReplace struct {
	idx  []int32
	next int
	rng  *rand.Rand
}

// NewUniformNoReplace prepares a without-replacement sampler over [0, n).
func NewUniformNoReplace(n int, rng *rand.Rand) *UniformNoReplace {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return &UniformNoReplace{idx: idx, rng: rng}
}

// Next returns the next distinct uniform index and true, or (0, false)
// when the population is exhausted.
func (u *UniformNoReplace) Next() (int, bool) {
	if u.next >= len(u.idx) {
		return 0, false
	}
	j := u.next + u.rng.IntN(len(u.idx)-u.next)
	u.idx[u.next], u.idx[j] = u.idx[j], u.idx[u.next]
	v := int(u.idx[u.next])
	u.next++
	return v, true
}

// Remaining returns how many draws are left.
func (u *UniformNoReplace) Remaining() int { return len(u.idx) - u.next }

// SampleKInPlace returns k distinct elements chosen uniformly from
// population (fewer when the population is smaller) via a partial
// Fisher–Yates shuffle: the selection lands in the slice's prefix,
// which is returned without copying. The input's element ORDER is
// mutated (contents are only permuted), so it suits scratch buffers —
// the Batch BFS sampler runs it directly on its traversal engine's
// visit buffer, paying O(k) random draws instead of the O(|population|)
// a non-mutating reservoir costs on vicinity-scale populations.
func SampleKInPlace[T any](population []T, k int, rng *rand.Rand) []T {
	if k > len(population) {
		k = len(population)
	}
	for i := 0; i < k; i++ {
		j := i + rng.IntN(len(population)-i)
		population[i], population[j] = population[j], population[i]
	}
	return population[:k]
}

// SampleIndices appends to dst[:0] k distinct indices of [0, n) (all n
// when k ≥ n) and returns it. It uses Floyd's algorithm with Bentley
// and Floyd's ordered insertion, so the result is a uniformly random
// k-subset in uniformly random order, drawn with exactly min(k, n)
// random numbers. Cost is O(k²) in the membership scans, which is the
// right trade for the small k of batched importance sampling; the
// population itself is never touched, so callers can draw from a
// shared read-only slice. For k = 1 it is exactly rng.IntN(n).
func SampleIndices(n, k int, rng *rand.Rand, dst []int) []int {
	dst = dst[:0]
	if k > n {
		k = n
	}
	for j := n - k; j < n; j++ {
		t := rng.IntN(j + 1)
		if at := slices.Index(dst, t); at >= 0 {
			dst = slices.Insert(dst, at+1, j)
		} else {
			dst = slices.Insert(dst, 0, t)
		}
	}
	return dst
}

// SampleK returns k distinct elements chosen uniformly from population
// (fewer when the population is smaller), in random order, without
// mutating the input.
func SampleK[T any](population []T, k int, rng *rand.Rand) []T {
	if k >= len(population) {
		out := append([]T(nil), population...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	// reservoir over the slice: O(len) but allocation-light; fine for the
	// vicinity-sized populations it is used on.
	out := make([]T, k)
	copy(out, population[:k])
	for i := k; i < len(population); i++ {
		j := rng.IntN(i + 1)
		if j < k {
			out[j] = population[i]
		}
	}
	return out
}

// Reservoir maintains a uniform fixed-size sample over a stream of items
// of unknown length (used by tooling that samples reference nodes from
// BFS visit streams without materializing them).
type Reservoir[T any] struct {
	items []T
	k     int
	seen  int64
	rng   *rand.Rand
}

// NewReservoir returns a reservoir of capacity k.
func NewReservoir[T any](k int, rng *rand.Rand) *Reservoir[T] {
	return &Reservoir[T]{items: make([]T, 0, k), k: k, rng: rng}
}

// Offer feeds one stream item.
func (r *Reservoir[T]) Offer(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(r.k) {
		r.items[j] = item
	}
}

// Sample returns the current sample. The slice aliases the reservoir.
func (r *Reservoir[T]) Sample() []T { return r.items }

// Seen returns how many items have been offered.
func (r *Reservoir[T]) Seen() int64 { return r.seen }
