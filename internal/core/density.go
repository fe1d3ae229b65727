package core

import (
	"context"

	"tesc/internal/graph"
)

// Density holds every per-reference-node quantity one h-hop BFS yields.
//
// A single traversal from r computes the vicinity size |V^h_r|, the two
// event occurrence counts, and the event-node count |Va∪b ∩ V^h_r| that
// the importance-sampling estimator needs for p(r). Sharing the BFS
// this way means evaluating p(r) costs nothing on top of the density
// pass.
type Density struct {
	VicinitySize int // |V^h_r|, the normalizing "area" of Eq. 2
	CountA       int // |Va ∩ V^h_r|
	CountB       int // |Vb ∩ V^h_r|
	CountUnion   int // |Va∪b ∩ V^h_r|, numerator of p(r)·Nsum

	// SumA and SumB are the intensity-weighted occurrence masses; they
	// equal CountA/CountB when the problem has unit intensities.
	SumA, SumB float64
}

// SA returns s^h_a(r) = SumA / VicinitySize (Eq. 2, intensity-weighted).
func (d Density) SA() float64 { return d.SumA / float64(d.VicinitySize) }

// SB returns s^h_b(r).
func (d Density) SB() float64 { return d.SumB / float64(d.VicinitySize) }

// InSight reports whether r sees at least one event occurrence — i.e.
// whether r is a legal reference node (Definition 3; §3.2 excludes
// "out-of-sight" nodes).
func (d Density) InSight() bool { return d.CountUnion > 0 }

// DensitySource abstracts the density phase of a TESC test: given the
// sampled reference nodes it produces the paired density vectors and
// the per-node Density records. DensityEvaluator is the default
// implementation; screen's cross-pair memo substitutes one that reuses
// traversals across event pairs (Options.Densities).
//
// ds may be nil: custom sources only serve uniform samples (Test
// rejects them for importance-weighted ones), and the uniform
// statistics consume only sa/sb — the per-node records exist for the
// weighted estimator and diagnostics. Sources that can produce them
// cheaply should; screen's memo skips them to keep a standing query's
// re-screen free of O(n) record construction.
//
// Traversals reports the cumulative number of h-hop BFS performed by
// the source since its creation; Test differences it around the EvalAll
// call to attribute traversal counts to one test.
type DensitySource interface {
	EvalAll(rs []graph.NodeID) (sa, sb []float64, ds []Density)
	Traversals() int64
}

// DensityEvaluator computes Density records over a fixed problem and
// vicinity level, reusing one BFS engine. Not safe for concurrent use.
type DensityEvaluator struct {
	p   *Problem
	h   int
	bfs *graph.BFS
	// evaluation counters for the complexity experiments (Fig. 10a)
	BFSCount int64 // number of h-hop traversals performed
}

// NewDensityEvaluator returns an evaluator for p at level h.
func NewDensityEvaluator(p *Problem, h int) *DensityEvaluator {
	return NewDensityEvaluatorBFS(p, h, graph.NewBFS(p.G))
}

// NewDensityEvaluatorBFS is NewDensityEvaluator with a caller-supplied
// BFS engine (typically p.G.AcquireBFS()), so serving tiers stop
// allocating an O(|V|) mark array per query. The engine must be bound
// to p.G.
func NewDensityEvaluatorBFS(p *Problem, h int, bfs *graph.BFS) *DensityEvaluator {
	if bfs.Graph() != p.G {
		panic("core: BFS engine bound to a different graph")
	}
	return &DensityEvaluator{p: p, h: h, bfs: bfs}
}

// Traversals implements DensitySource.
func (e *DensityEvaluator) Traversals() int64 { return e.BFSCount }

// Eval runs one h-hop BFS from r and returns its Density.
//
// This is the flat fast path: the traversal (BFS.Collect) runs without
// a per-node callback, and the density accumulation is a branch-light
// scan of the visited buffer against the problem's packed label array —
// one byte load per node instead of two bitset probes behind a closure
// call. The tests keep the original callback-based kernel as an oracle
// (EvalReference in flat_test.go); the two are bit-identical (see
// TestFlatKernelMatchesReference), because the flat kernel accumulates
// in the exact visit order of the reference path and unit-intensity
// sums of 1.0 are exact in float64.
func (e *DensityEvaluator) Eval(r graph.NodeID) Density {
	e.BFSCount++
	nodes := e.bfs.Collect([]graph.NodeID{r}, e.h)
	labels := e.p.Labels()
	var d Density
	d.VicinitySize = len(nodes)
	ia, ib := e.p.IntensityA, e.p.IntensityB
	if ia == nil && ib == nil {
		var ca, cb, cu int
		for _, v := range nodes {
			l := labels[v]
			ca += int(l & 1)
			cb += int((l >> 1) & 1)
			cu += int((l >> 2) & 1)
		}
		d.CountA, d.CountB, d.CountUnion = ca, cb, cu
		d.SumA, d.SumB = float64(ca), float64(cb)
		return d
	}
	// Intensity-weighted variant: float64 accumulation order matters for
	// bit-identical sums, so add in the same visit order as the
	// reference kernel.
	for _, v := range nodes {
		l := labels[v]
		if l&LabelA != 0 {
			d.CountA++
			if ia != nil {
				d.SumA += ia[v]
			} else {
				d.SumA++
			}
		}
		if l&LabelB != 0 {
			d.CountB++
			if ib != nil {
				d.SumB += ib[v]
			} else {
				d.SumB++
			}
		}
		if l&LabelUnion != 0 {
			d.CountUnion++
		}
	}
	return d
}

// cancelChunk is the number of traversals the density pass runs
// between cancellation checks.
const cancelChunk = 64

// EvalAll evaluates every node in rs and returns the parallel density
// vectors s^h_a and s^h_b plus the full records.
func (e *DensityEvaluator) EvalAll(rs []graph.NodeID) (sa, sb []float64, ds []Density) {
	sa, sb, ds, _ = e.evalAllCtx(nil, rs)
	return sa, sb, ds
}

// evalAllCtx is EvalAll with ctx checked every cancelChunk traversals:
// on cancellation the wrapped cause is returned and the partially
// filled vectors must be discarded. A nil ctx never cancels.
func (e *DensityEvaluator) evalAllCtx(ctx context.Context, rs []graph.NodeID) (sa, sb []float64, ds []Density, err error) {
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	ds = make([]Density, len(rs))
	for i, r := range rs {
		if i%cancelChunk == 0 {
			if err := ctxErr(ctx); err != nil {
				return sa, sb, ds, err
			}
		}
		d := e.Eval(r)
		ds[i] = d
		sa[i] = d.SA()
		sb[i] = d.SB()
	}
	return sa, sb, ds, nil
}

// eventPassEligible reports whether p admits the event-centric
// density pass at all: the vicinity relation must be symmetric (an
// undirected graph), and the densities plain occurrence counts (unit
// intensities — an intensity-weighted sum depends on the order Eval
// adds in).
func eventPassEligible(p *Problem) bool {
	return !p.G.Directed() && p.IntensityA == nil && p.IntensityB == nil
}

// Costs of the plan rule, in fifths of one visited node of a
// per-reference traversal (Collect plus the label scan). Measured per
// visited ID on the 100k-node coauthorship surrogate (2-core Xeon,
// h = 1..3, |Va∪b| from 150 to 12k, n = 900): a per-reference
// traversal costs 22–30 ns, an event-pass traversal with its slot scan
// 18–32 ns, and the slot scan of a memoized vicinity 4–5 ns. So
// traversing is worth 4 and scanning 1 against the per-reference 5.
const (
	perRefCost   = 5 // one visited ID of a per-reference BFS
	traverseCost = 4 // traversing one ID of an unmemoized event vicinity
	scanCost     = 1 // scanning one ID of any event vicinity
)

// preferEventPass decides, before any density work runs, between one
// BFS per reference node in rs and the event-centric pass over m, from
// sizes the index already holds. The per-reference plan visits
// Σ_r |V^h_r| nodes. The event-centric plan traverses the event nodes
// the sampler did not memoize and scans every event vicinity once. The
// cheaper estimate wins; a tie goes to the per-reference plan. Event
// sets much larger than the sample (|Va∪b| ≫ n) therefore keep the
// per-reference pass, and the scan over them stops as soon as the
// event-centric estimate loses.
func preferEventPass(m *vicinityMemo, rs []graph.NodeID) bool {
	var perRef int64
	for _, r := range rs {
		perRef += int64(m.sizes[r])
	}
	budget := perRefCost * perRef
	var cost int64
	for j, u := range m.nodes {
		size := int64(m.sizes[u])
		cost += scanCost * size
		if m.spans[j].end == 0 {
			cost += traverseCost * size
		}
		if cost >= budget {
			return false
		}
	}
	return true
}

// evalByEvents is the event-centric density pass of an importance
// sample: it yields exactly EvalAll's vectors and records for the
// distinct reference nodes rs without one traversal per reference
// node. On an undirected graph r ∈ V^h_u ⟺ u ∈ V^h_r, so walking every
// event node u's vicinity once and crediting u's memberships to each
// reference node it reaches counts |Va ∩ V^h_r|, |Vb ∩ V^h_r| and
// |Va∪b ∩ V^h_r|; |V^h_r| is the index column m.sizes. The counts are
// integers and Eval's unit path divides the same integers, so sa, sb
// and ds are bit-identical to EvalAll's. p must pass
// eventPassEligible.
//
// Vicinities the sampler memoized are read from m's arena; the rest are
// traversed with bfs and scanned straight out of its Collect buffer,
// never stored — traversals counts them. The node→slot map lives in
// bfs.Slots() and is zeroed again before returning. ctx is checked
// every cancelChunk event nodes, as EvalAll checks every cancelChunk
// reference nodes.
func evalByEvents(ctx context.Context, p *Problem, m *vicinityMemo, rs []graph.NodeID, bfs *graph.BFS) (sa, sb []float64, ds []Density, traversals int64, err error) {
	slots := bfs.Slots()
	for i, r := range rs {
		slots[r] = uint32(i)
	}
	defer func() {
		for _, r := range rs {
			slots[r] = 0
		}
	}()
	n := uint32(len(rs))
	ds = make([]Density, len(rs))
	for j, u := range m.nodes {
		if j%cancelChunk == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, nil, nil, traversals, err
			}
		}
		var vic []graph.NodeID
		if sp := m.spans[j]; sp.end > 0 {
			vic = m.arena[sp.start:sp.end]
		} else {
			traversals++
			vic = bfs.Collect([]graph.NodeID{u}, m.h)
		}
		var da, db int
		if p.Va.Contains(u) {
			da = 1
		}
		if p.Vb.Contains(u) {
			db = 1
		}
		for _, v := range vic {
			if s := slots[v]; s < n && rs[s] == v {
				d := &ds[s]
				d.CountA += da
				d.CountB += db
				d.CountUnion++
			}
		}
	}
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	for i, r := range rs {
		d := &ds[i]
		d.VicinitySize = int(m.sizes[r])
		d.SumA, d.SumB = float64(d.CountA), float64(d.CountB)
		sa[i], sb[i] = d.SA(), d.SB()
	}
	return sa, sb, ds, traversals, nil
}
