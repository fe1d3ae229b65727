package core

import (
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
	// Engines, when non-nil and bound to p.G, supplies the private BFS
	// engines EvalAllParallel's workers use, so a pooled serving tier
	// stops allocating O(|V|) traversal scratch per worker per query.
	Engines *graph.EnginePool
	// evaluation counters for the complexity experiments (Fig. 10a)
	BFSCount int64 // number of h-hop traversals performed
}

// NewDensityEvaluator returns an evaluator for p at level h.
func NewDensityEvaluator(p *Problem, h int) *DensityEvaluator {
	return NewDensityEvaluatorBFS(p, h, graph.NewBFS(p.G))
}

// NewDensityEvaluatorBFS is NewDensityEvaluator with a caller-supplied
// BFS engine (typically from a graph.EnginePool), so serving tiers stop
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

// EvalAll evaluates every node in rs and returns the parallel density
// vectors s^h_a and s^h_b plus the full records.
func (e *DensityEvaluator) EvalAll(rs []graph.NodeID) (sa, sb []float64, ds []Density) {
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	ds = make([]Density, len(rs))
	e.evalInto(rs, sa, sb, ds)
	return sa, sb, ds
}

// evalInto is EvalAll into caller-owned slices (len(rs) each), the
// shared core of the sequential and parallel phases.
func (e *DensityEvaluator) evalInto(rs []graph.NodeID, sa, sb []float64, ds []Density) {
	for i, r := range rs {
		d := e.Eval(r)
		ds[i] = d
		sa[i] = d.SA()
		sb[i] = d.SB()
	}
}
