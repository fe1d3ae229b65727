package core

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"tesc/internal/graph"
	"tesc/internal/sampling"
	"tesc/internal/vicinity"
)

// RefSample is the outcome of reference-node selection.
type RefSample struct {
	// Nodes are the distinct reference nodes drawn from V^h_{a∪b}.
	Nodes []graph.NodeID
	// Freq is nil for uniform samples. For importance sampling it holds
	// w_i, the number of times Nodes[i] was generated (Algorithm 2's W);
	// the test then uses the weighted estimator t̃ of Eq. 8.
	Freq []int
	// Stats records the work the sampler performed.
	Stats SamplerStats

	// memo is the importance sampler's per-request vicinity memo, handed
	// on to Test for the event-centric density phase (evalByEvents)
	// with its engine already released. Test returns it to the pool.
	memo *vicinityMemo
}

// Weighted reports whether the sample carries importance frequencies.
func (s RefSample) Weighted() bool { return s.Freq != nil }

// SamplerStats counts the work done during reference selection; the
// complexity analysis of §4.4 is expressed in exactly these quantities.
type SamplerStats struct {
	// BFSCount counts the h-hop BFS traversals the sampler performed.
	// The rejection and importance samplers memoize the vicinities of
	// the event nodes they draw, so for them it is at most the number
	// of draws (plus, for rejection, one per draw for the acceptance
	// test).
	BFSCount   int64
	Draws      int64 // sampling iterations (importance sampling's n')
	Rejections int64 // RejectSamp coin-flip failures
	Examined   int64 // whole-graph nodes examined for eligibility
	OutOfSight int64 // examined nodes outside V^h_{a∪b} (the paper's n_f)
	Population int   // N = |V^h_{a∪b}| when enumerated (Batch BFS), else -1
}

// Sampler draws reference nodes for a TESC test. The built-in samplers
// hold no per-call state: each call takes its traversal engine from the
// problem's graph (Graph.AcquireBFS) and returns it when done.
type Sampler interface {
	// Name identifies the strategy in reports ("batch-bfs", ...).
	Name() string
	// SampleReferences draws up to n distinct reference nodes from
	// V^h_{a∪b}. Fewer than n nodes are returned only when the reference
	// population (or the sampler's draw budget) is exhausted.
	SampleReferences(p *Problem, h, n int, rng *rand.Rand) (RefSample, error)
}

// maxDrawFactor bounds the draw loops of the rejection and importance
// samplers: after maxDrawFactor·n + maxDrawSlack iterations without
// reaching n distinct nodes the sample is returned as-is. This only
// triggers when N is close to (or below) n, where the estimator is
// nearly exact anyway.
const (
	maxDrawFactor = 50
	maxDrawSlack  = 1000
)

// vicinityMemo serves the h-vicinities of one request's event nodes to
// the rejection and importance samplers, traversing each distinct event
// node at most once. Vicinities are copied into one arena, addressed by
// a [start,end) span per event-node index. The arena is capped at |V|
// IDs — the same O(|V|) as the engine's own mark array — so no request
// buys unbounded memory: a vicinity that does not fit is returned
// straight from the engine's Collect buffer and traversed again when
// drawn again. Every vicinity comes back in Collect's visit order
// whether memoized or not, and callers never mutate it, so the memo is
// a pure cache: the draws are identical with it on, off or capped.
type vicinityMemo struct {
	bfs        *graph.BFS
	nodes      []graph.NodeID // event nodes; spans is indexed like nodes
	h          int
	sizes      []int32 // the index's |V^h_·| column, set on hand-off
	limit      int     // arena cap in IDs
	arena      []graph.NodeID
	spans      []memoSpan
	traversals int64 // h-hop BFS run so far
}

// memoSpan locates one memoized vicinity in the arena. A vicinity
// always holds its own centre, so end == 0 marks an absent entry.
type memoSpan struct{ start, end int32 }

// memos recycles vicinityMemo buffers across requests. The arena is a
// sampler's largest allocation, and tescd builds a fresh sampler per
// query, so without the pool every correlate would regrow it.
var memos = sync.Pool{New: func() any { return new(vicinityMemo) }}

// newVicinityMemo takes a memo from the pool; release returns it.
func newVicinityMemo(bfs *graph.BFS, nodes []graph.NodeID, h int, capOverride *int) *vicinityMemo {
	limit := bfs.Graph().NumNodes()
	if capOverride != nil {
		limit = *capOverride
	}
	m := memos.Get().(*vicinityMemo)
	m.bfs, m.nodes, m.h, m.limit, m.traversals = bfs, nodes, h, limit, 0
	m.arena = m.arena[:0]
	if cap(m.spans) < len(nodes) {
		m.spans = make([]memoSpan, len(nodes))
	} else {
		m.spans = m.spans[:len(nodes)]
		clear(m.spans)
	}
	return m
}

// release returns the memo to the pool; its vicinities must no longer
// be in use.
func (m *vicinityMemo) release() {
	m.bfs, m.nodes, m.sizes = nil, nil, nil
	memos.Put(m)
}

// vicinity returns V^h of nodes[i] in Collect's visit order. The slice
// must not be modified, and is valid only until the engine's next
// traversal when it did not fit the arena.
func (m *vicinityMemo) vicinity(i int) []graph.NodeID {
	if sp := m.spans[i]; sp.end > 0 {
		return m.arena[sp.start:sp.end]
	}
	m.traversals++
	vic := m.bfs.Collect([]graph.NodeID{m.nodes[i]}, m.h)
	need := len(m.arena) + len(vic)
	if need > m.limit {
		return vic
	}
	if need > cap(m.arena) {
		grown := make([]graph.NodeID, len(m.arena), min(m.limit, max(need, 2*cap(m.arena), 1024)))
		copy(grown, m.arena)
		m.arena = grown
	}
	start := len(m.arena)
	m.arena = append(m.arena, vic...)
	m.spans[i] = memoSpan{int32(start), int32(need)}
	return m.arena[start:need]
}

// ---------------------------------------------------------------------
// Batch BFS (Algorithm 1)
// ---------------------------------------------------------------------

// BatchBFSSampler materializes the whole reference population V^h_{a∪b}
// with one multi-source BFS from Va∪b (Algorithm 1, worst case
// O(|V|+|E|)) and then draws n nodes uniformly without replacement.
type BatchBFSSampler struct{}

// Name implements Sampler.
func (s *BatchBFSSampler) Name() string { return "batch-bfs" }

// SampleReferences implements Sampler.
func (s *BatchBFSSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand) (RefSample, error) {
	bfs := p.G.AcquireBFS()
	defer p.G.ReleaseBFS(bfs)
	// The engine's flat visit buffer IS the enumerated population; the
	// draw shuffles its prefix in place (engine scratch is fair game
	// between traversals), so materializing V^h_{a∪b} costs no copy and
	// the draw costs O(n) rather than O(N) random numbers.
	pop := bfs.Collect(p.EventNodes(), h)
	N := len(pop)
	if N < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	nodes := sampling.SampleKInPlace(pop, n, rng)
	return RefSample{
		Nodes: append([]graph.NodeID(nil), nodes...),
		Stats: SamplerStats{BFSCount: 1, Population: N},
	}, nil
}

// ---------------------------------------------------------------------
// All-nodes sampling (§3.2 ablation)
// ---------------------------------------------------------------------

// AllNodesSampler draws reference nodes uniformly from the WHOLE graph,
// including out-of-sight nodes whose h-vicinity contains no event
// occurrence. The paper's §3.2 (Figure 3) argues this is wrong — the
// shared 0-ties of the out-of-sight block simultaneously add concordant
// pairs and shrink the null variance, inflating z. The sampler exists to
// reproduce that argument empirically (see the out-of-sight tests and
// the ablation benchmark); do not use it for real measurements.
type AllNodesSampler struct{}

// Name implements Sampler.
func (s *AllNodesSampler) Name() string { return "all-nodes(invalid)" }

// SampleReferences implements Sampler.
func (s *AllNodesSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand) (RefSample, error) {
	total := p.G.NumNodes()
	if total < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	picker := sampling.NewUniformNoReplace(total, rng)
	nodes := make([]graph.NodeID, 0, n)
	for len(nodes) < n {
		v, ok := picker.Next()
		if !ok {
			break
		}
		nodes = append(nodes, graph.NodeID(v))
	}
	return RefSample{Nodes: nodes, Stats: SamplerStats{Population: total}}, nil
}

// ---------------------------------------------------------------------
// Rejection sampling (Procedure RejectSamp)
// ---------------------------------------------------------------------

// RejectionSampler implements Procedure RejectSamp: draw an event node v
// with probability |V^h_v|/Nsum, draw u uniformly from V^h_v, then accept
// u with probability 1/|V^h_u ∩ Va∪b|. Proposition 1 shows each node of
// V^h_{a∪b} is produced with probability 1/Nsum, so accepted nodes form a
// uniform sample. Each draw costs one h-hop BFS from u; step 2's
// vicinities come from the per-request memo, so the BFS from v is paid
// once per distinct event node drawn. The expected number of draws per
// accepted node
// is Nsum/N, which grows with vicinity overlap — the inefficiency that
// motivates the importance sampler.
type RejectionSampler struct {
	// Index must cover level h for the problem's graph.
	Index *vicinity.Index

	memoCap *int // test hook: replaces the |V| arena cap of vicinityMemo
}

// Name implements Sampler.
func (s *RejectionSampler) Name() string { return "rejection" }

// SampleReferences implements Sampler.
func (s *RejectionSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand) (RefSample, error) {
	if err := s.checkIndex(p, h); err != nil {
		return RefSample{}, err
	}
	bfs := p.G.AcquireBFS()
	defer p.G.ReleaseBFS(bfs)
	eventNodes := p.EventNodes()
	alias, err := sampling.NewAlias(s.Index.Weights(eventNodes, h))
	if err != nil {
		return RefSample{}, fmt.Errorf("tesc: rejection sampler: %w", err)
	}

	var st SamplerStats
	st.Population = -1
	memo := newVicinityMemo(bfs, eventNodes, h, s.memoCap)
	defer memo.release()
	seen := make(map[graph.NodeID]bool, n)
	nodes := make([]graph.NodeID, 0, n)
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		st.Draws++
		// Step 1: v ∝ |V^h_v|; step 2: u uniform from V^h_v.
		vic := memo.vicinity(alias.Draw(rng))
		u := vic[rng.IntN(len(vic))]
		// Step 3: c = |V^h_u ∩ Va∪b|.
		c := 0
		bfs.Run([]graph.NodeID{u}, h, func(w graph.NodeID, _ int) {
			if p.Union.Contains(w) {
				c++
			}
		})
		st.BFSCount++
		// Step 4: accept with probability 1/c.
		if c < 1 || rng.Float64() >= 1/float64(c) {
			st.Rejections++
			continue
		}
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	st.BFSCount += memo.traversals
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	return RefSample{Nodes: nodes, Stats: st}, nil
}

func (s *RejectionSampler) checkIndex(p *Problem, h int) error {
	switch {
	case s.Index == nil:
		return fmt.Errorf("tesc: %s sampler requires a vicinity index", s.Name())
	case s.Index.Graph() != p.G:
		return fmt.Errorf("tesc: vicinity index bound to a different graph")
	case s.Index.MaxLevel() < h:
		return fmt.Errorf("tesc: vicinity index covers levels 1..%d, need %d", s.Index.MaxLevel(), h)
	}
	return nil
}

// ---------------------------------------------------------------------
// Importance sampling (Algorithm 2, §5.2.2 batched variant)
// ---------------------------------------------------------------------

// ImportanceSampler implements Algorithm 2: draw event node v with
// probability |V^h_v|/Nsum, then draw reference nodes uniformly from
// V^h_v *without rejection*, recording frequencies. The resulting sample
// follows P = {p(r) = |V^h_r ∩ Va∪b|/Nsum}, and the test compensates with
// the weighted estimator t̃ (Eq. 8), a consistent estimator of τ
// (Theorem 1).
//
// Each distinct event node drawn is traversed once per request while
// its vicinity fits the |V|-capped memo (vicinityMemo), and each draw
// from its vicinity costs O(BatchSize) random numbers, not O(|V^h_v|):
// the sampler's cost follows the distinct event nodes it touches rather
// than the number of draws.
//
// BatchSize > 1 enables the §5.2.2 refinement: several distinct
// reference nodes are drawn per event-node draw, trading a little
// estimator accuracy (samples become locally dependent) for
// proportionally fewer event-node draws. The paper settles on 3 for h=2
// and 6 for h=3 (Figure 7).
type ImportanceSampler struct {
	// Index must cover level h for the problem's graph.
	Index *vicinity.Index
	// BatchSize is the number of reference nodes drawn per event-node
	// draw; 0 or 1 means the plain Algorithm 2.
	BatchSize int

	memoCap  *int                // test hook: replaces the |V| arena cap of vicinityMemo
	handOffs func(*vicinityMemo) // test hook: sees each memo handed to Test
}

// Name implements Sampler.
func (s *ImportanceSampler) Name() string {
	if s.BatchSize > 1 {
		return fmt.Sprintf("importance-batch%d", s.BatchSize)
	}
	return "importance"
}

// SampleReferences implements Sampler.
func (s *ImportanceSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand) (RefSample, error) {
	return s.sample(p, h, n, rng, false)
}

// sample is SampleReferences; with handOff set, the sample carries the
// request's vicinity memo (RefSample.memo) instead of returning it to
// the pool, so Test can build the densities from the same vicinities.
func (s *ImportanceSampler) sample(p *Problem, h, n int, rng *rand.Rand, handOff bool) (sample RefSample, err error) {
	rs := &RejectionSampler{Index: s.Index}
	if err := rs.checkIndex(p, h); err != nil {
		return RefSample{}, fmt.Errorf("tesc: importance sampler: %w", err)
	}
	bfs := p.G.AcquireBFS()
	defer p.G.ReleaseBFS(bfs)
	batch := max(s.BatchSize, 1)
	eventNodes := p.EventNodes()
	alias, err := sampling.NewAlias(s.Index.Weights(eventNodes, h))
	if err != nil {
		return RefSample{}, fmt.Errorf("tesc: importance sampler: %w", err)
	}

	var st SamplerStats
	st.Population = -1
	memo := newVicinityMemo(bfs, eventNodes, h, s.memoCap)
	defer func() {
		if sample.memo == nil {
			memo.release()
		}
	}()
	pos := make(map[graph.NodeID]int, n) // node → index in nodes
	nodes := make([]graph.NodeID, 0, n)
	freq := make([]int, 0, n)
	picks := make([]int, 0, batch)
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		// Line 4: v ∝ |V^h_v|; line 5: draw from V^h_v.
		vic := memo.vicinity(alias.Draw(rng))
		picks = sampling.SampleIndices(len(vic), batch, rng, picks)
		for _, j := range picks {
			r := vic[j]
			st.Draws++
			if i, ok := pos[r]; ok {
				freq[i]++
			} else {
				pos[r] = len(nodes)
				nodes = append(nodes, r)
				freq = append(freq, 1)
			}
			if len(nodes) >= n {
				break
			}
		}
	}
	st.BFSCount = memo.traversals
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	sample = RefSample{Nodes: nodes, Freq: freq, Stats: st}
	if handOff {
		memo.bfs, memo.sizes = nil, s.Index.Sizes(h)
		sample.memo = memo
		if s.handOffs != nil {
			s.handOffs(memo)
		}
	}
	return sample, nil
}

// ---------------------------------------------------------------------
// Whole graph sampling (Algorithm 3)
// ---------------------------------------------------------------------

// WholeGraphSampler implements Algorithm 3: draw nodes uniformly from the
// whole graph without replacement and keep those whose h-vicinity
// contains an event node. Kept nodes are a uniform sample of V^h_{a∪b};
// the expected number of wasted examinations is n·|V|/N − n (§4.4), so
// the strategy only pays off when V^h_{a∪b} covers much of the graph
// (large |Va∪b| and/or large h).
type WholeGraphSampler struct{}

// Name implements Sampler.
func (s *WholeGraphSampler) Name() string { return "whole-graph" }

// SampleReferences implements Sampler.
func (s *WholeGraphSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand) (RefSample, error) {
	bfs := p.G.AcquireBFS()
	defer p.G.ReleaseBFS(bfs)
	var st SamplerStats
	st.Population = -1
	nodes := make([]graph.NodeID, 0, n)
	picker := sampling.NewUniformNoReplace(p.G.NumNodes(), rng)
	for len(nodes) < n {
		v, ok := picker.Next()
		if !ok {
			break // population exhausted
		}
		st.Examined++
		// Eligibility test with early exit on the first event node seen.
		eligible := false
		bfs.RunUntil([]graph.NodeID{graph.NodeID(v)}, h, func(w graph.NodeID, _ int) bool {
			if p.Union.Contains(w) {
				eligible = true
				return false
			}
			return true
		})
		st.BFSCount++
		if eligible {
			nodes = append(nodes, graph.NodeID(v))
		} else {
			st.OutOfSight++
		}
	}
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	return RefSample{Nodes: nodes, Stats: st}, nil
}
