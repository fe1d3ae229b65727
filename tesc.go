// Package tesc measures Two-Event Structural Correlations on graphs.
//
// It is a from-scratch Go implementation of Guan, Yan & Kaplan,
// "Measuring Two-Event Structural Correlations on Graphs" (PVLDB 5(11),
// 2012): given two events occurring on the nodes of a graph — product
// purchases in a social network, alert types in a computer network — the
// TESC test decides whether the events attract or repulse each other in
// the graph's structure, with rigorous statistical significance.
//
// # Quick start
//
//	g, err := tesc.BuildGraph(numNodes, edges)
//	res, err := tesc.Correlation(g, occurrencesOfA, occurrencesOfB, tesc.Options{H: 1})
//	if res.Significant && res.Z > 0 { /* the events attract */ }
//
// The test samples reference nodes from the joint vicinity of the two
// events, measures both events' densities around every reference node,
// and aggregates pairwise concordance of the density changes with
// Kendall's τ; under the independence null hypothesis τ is asymptotically
// normal, giving z-scores and p-values without randomization.
//
// Four reference-node sampling strategies are available (Options.Method):
// Batch BFS enumerates the reference population exactly; importance
// sampling and whole-graph sampling avoid the enumeration and scale to
// graphs with tens of millions of nodes; rejection sampling is mainly of
// theoretical interest. Importance and rejection sampling need a
// precomputed vicinity-size index (Graph.BuildVicinityIndex).
package tesc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"tesc/internal/baseline"
	"tesc/internal/core"
	"tesc/internal/graph"
	"tesc/internal/graphio"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// Graph is an immutable undirected graph. Node IDs are dense integers
// 0..NumNodes-1.
type Graph struct {
	g *graph.Graph
}

// BuildGraph constructs a graph with n nodes from an undirected edge
// list. Duplicate edges and self-loops are dropped.
func BuildGraph(n int, edges [][2]int) (*Graph, error) {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("tesc: edge (%d,%d) outside node range [0,%d)", e[0], e[1], n)
		}
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ReadGraph parses a whitespace-separated edge list ("u v" per line, '#'
// comments, optional "# nodes N" header).
func ReadGraph(r io.Reader) (*Graph, error) {
	g, err := graphio.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// ReadGraphMax is ReadGraph with a cap on the node universe: IDs or a
// "# nodes N" header at or above maxNodes fail instead of allocating.
// Use it on untrusted input, where a single hostile line ("0 2000000000")
// would otherwise demand gigabytes.
func ReadGraphMax(r io.Reader, maxNodes int) (*Graph, error) {
	g, err := graphio.ReadEdgeListMax(r, maxNodes)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// WriteGraph writes the graph in the ReadGraph edge-list format.
func (g *Graph) WriteGraph(w io.Writer) error { return graphio.WriteEdgeList(w, g.g) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.g.NumEdges() }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return g.g.Degree(graph.NodeID(v)) }

// Neighbors returns the sorted neighbor IDs of node v.
func (g *Graph) Neighbors(v int) []int {
	ns := g.g.Neighbors(graph.NodeID(v))
	out := make([]int, len(ns))
	for i, u := range ns {
		out[i] = int(u)
	}
	return out
}

// Internal exposes the internal representation for the repository's own
// benchmark and experiment drivers. Not part of the stable API.
func (g *Graph) Internal() *graph.Graph { return g.g }

// FromInternal wraps an internal graph (e.g. one deserialized by the
// snapshot subsystem) in the public type. Not part of the stable API.
func FromInternal(g *graph.Graph) *Graph { return &Graph{g: g} }

// EdgeChange is one edge mutation: the insertion (Insert == true) or
// deletion of the undirected edge {U, V}.
type EdgeChange struct {
	U, V   int
	Insert bool
}

// ApplyEdgeChanges returns a fresh graph snapshot with the changes
// applied, leaving g untouched (graphs are immutable; a dynamic graph
// is a succession of snapshots). No-op changes — inserting a present
// edge, deleting an absent one — are skipped; the second return value
// lists the changes that actually took effect, in order, which is
// exactly what VicinityIndex.ApplyDelta must be fed to repair an index
// across the transition. Self-loops and out-of-range endpoints fail
// without applying anything.
func (g *Graph) ApplyEdgeChanges(changes []EdgeChange) (*Graph, []EdgeChange, error) {
	n := g.NumNodes()
	staged := make([]graph.EdgeChange, len(changes))
	for i, c := range changes {
		if c.U < 0 || c.U >= n || c.V < 0 || c.V >= n {
			return nil, nil, fmt.Errorf("tesc: edge (%d,%d) outside node range [0,%d)", c.U, c.V, n)
		}
		if c.U == c.V {
			return nil, nil, fmt.Errorf("tesc: self-loop (%d,%d) not allowed", c.U, c.V)
		}
		staged[i] = graph.EdgeChange{U: graph.NodeID(c.U), V: graph.NodeID(c.V), Insert: c.Insert}
	}
	d := graph.NewDelta(g.g)
	effective, err := d.Apply(staged)
	if err != nil {
		return nil, nil, err
	}
	applied := make([]EdgeChange, len(effective))
	for i, c := range effective {
		applied[i] = EdgeChange{U: int(c.U), V: int(c.V), Insert: c.Insert}
	}
	return &Graph{g: d.Compact()}, applied, nil
}

// VicinityIndex holds precomputed per-node vicinity sizes |V^h_v|,
// required by the Importance and Rejection sampling methods. Build once
// per graph and reuse across tests (§4.2 of the paper: the index is an
// offline, O(|V|)-space structure).
type VicinityIndex struct {
	idx *vicinity.Index
}

// BuildVicinityIndex precomputes |V^h_v| for h = 1..maxLevel using the
// given number of worker goroutines (0 = GOMAXPROCS).
func (g *Graph) BuildVicinityIndex(maxLevel, workers int) (*VicinityIndex, error) {
	idx, err := vicinity.Build(g.g, maxLevel, vicinity.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &VicinityIndex{idx: idx}, nil
}

// Clone returns an independent copy of the index, for copy-on-write
// maintenance: clone, ApplyDelta on the clone, publish the clone, while
// readers of the original keep a consistent view.
func (x *VicinityIndex) Clone() *VicinityIndex {
	return &VicinityIndex{idx: x.idx.Clone()}
}

// Internal exposes the internal index for the repository's own snapshot
// and benchmark drivers. Not part of the stable API.
func (x *VicinityIndex) Internal() *vicinity.Index { return x.idx }

// VicinityIndexFromInternal wraps an internal index (e.g. one
// deserialized by the snapshot subsystem) in the public type. Not part
// of the stable API.
func VicinityIndexFromInternal(idx *vicinity.Index) *VicinityIndex {
	return &VicinityIndex{idx: idx}
}

// ApplyDelta repairs the index in place after the graph changed from
// the one it was built on to g by the given effective edge changes
// (the second return of Graph.ApplyEdgeChanges), rebinding it to g.
// Only nodes within maxLevel hops of a flipped endpoint — in the old or
// the new snapshot — can have a stale |V^h_v| (§4.2's locality), so
// only those entries are recomputed, via bounded multi-source BFS
// instead of a full O(|V|·BFS) rebuild. Returns the number of
// recomputed entries. workers sizes the recompute pool (0 = GOMAXPROCS).
//
// The index must afterwards only be used with g (the samplers enforce
// this). Not safe to call concurrently with queries on the same index;
// use Clone for copy-on-write.
func (x *VicinityIndex) ApplyDelta(g *Graph, changes []EdgeChange, workers int) (int, error) {
	dirty, err := x.ApplyDeltaDirty(g, changes, workers)
	return len(dirty), err
}

// ApplyDeltaDirty is ApplyDelta surfacing the repaired node IDs
// themselves instead of just their count. The repaired set is exactly
// the set of nodes whose h-vicinities (h ≤ MaxLevel) the delta can
// have perturbed, so consumers that cache any per-node vicinity
// quantity — the monitor subsystem's standing-query density caches —
// invalidate precisely this set and keep everything else.
func (x *VicinityIndex) ApplyDeltaDirty(g *Graph, changes []EdgeChange, workers int) ([]int, error) {
	staged := make([]graph.EdgeChange, len(changes))
	for i, c := range changes {
		staged[i] = graph.EdgeChange{U: graph.NodeID(c.U), V: graph.NodeID(c.V), Insert: c.Insert}
	}
	dirty, err := x.idx.ApplyDeltaDirty(g.g, staged, vicinity.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	out := make([]int, len(dirty))
	for i, v := range dirty {
		out[i] = int(v)
	}
	return out, nil
}

// MaxLevel returns the largest vicinity level the index covers.
func (x *VicinityIndex) MaxLevel() int { return x.idx.MaxLevel() }

// BuiltFor reports whether the index is bound to exactly this graph
// snapshot — the consistency invariant the index-backed samplers check
// before use.
func (x *VicinityIndex) BuiltFor(g *Graph) bool { return x.idx.Graph() == g.g }

// EnginePool is a free list of BFS traversal engines bound to one graph
// snapshot. Each engine owns O(NumNodes) scratch (an epoch-stamped mark
// array plus frontier buffers), so a serving tier that runs many
// correlation queries against the same graph should create one pool per
// graph snapshot and pass it via Options.Engines / ScreenOptions.Engines:
// queries then reuse warm scratch instead of allocating it per request.
// Safe for concurrent use. Invalidate by dropping the pool when the
// graph snapshot is replaced (tescd keys its pools by graph version).
type EnginePool struct {
	p *graph.EnginePool
}

// NewEnginePool returns an empty engine pool bound to g.
func (g *Graph) NewEnginePool() *EnginePool {
	return &EnginePool{p: graph.NewEnginePool(g.g)}
}

// Method selects a reference-node sampling strategy.
type Method int

const (
	// BatchBFS (§4.1, Algorithm 1) enumerates the full reference
	// population with one multi-source BFS, then samples uniformly.
	// Best when the population is small; cost grows with |V^h_{a∪b}|.
	BatchBFS Method = iota
	// Importance (§4.2, Algorithm 2) draws reference nodes through
	// random event-node vicinities and corrects the bias with the
	// weighted estimator t̃ (Eq. 8). Cost depends on the sample size n,
	// not the population. Requires Options.Index.
	Importance
	// WholeGraph (§4.3, Algorithm 3) tests uniformly random nodes for
	// eligibility. Efficient only when the reference population covers
	// much of the graph (large events and/or vicinity level).
	WholeGraph
	// Rejection (§4.2, procedure RejectSamp) yields exactly uniform
	// reference nodes at the cost of two BFS per draw plus rejections.
	// Included for completeness. Requires Options.Index.
	Rejection
)

// String names the method.
func (m Method) String() string {
	switch m {
	case BatchBFS:
		return "batch-bfs"
	case Importance:
		return "importance"
	case WholeGraph:
		return "whole-graph"
	case Rejection:
		return "rejection"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Tail selects the alternative hypothesis of the test.
type Tail int

const (
	// BothTails tests for any correlation (two-sided).
	BothTails Tail = iota
	// PositiveTail tests for attraction only (one-sided, the paper's
	// positive-correlation experiments).
	PositiveTail
	// NegativeTail tests for repulsion only.
	NegativeTail
)

func (t Tail) alternative() stats.Alternative {
	switch t {
	case PositiveTail:
		return stats.Greater
	case NegativeTail:
		return stats.Less
	default:
		return stats.TwoSided
	}
}

// Options configures a TESC test. Zero values select the paper's
// defaults where meaningful: SampleSize 900, Alpha 0.05, BatchBFS
// sampling, two-sided alternative. H must be set explicitly (≥ 1).
type Options struct {
	// H is the vicinity level defining V^h_v, the set of nodes within h
	// hops (§2, Definition 1); the paper studies h = 1, 2, 3 throughout
	// §5's experiments.
	H int
	// SampleSize is the number of reference nodes drawn from the joint
	// vicinity V^h_{a∪b} (default 900, the sample size §5.2.1 fixes
	// after its convergence study).
	SampleSize int
	// Method selects the reference-node sampling strategy of §4
	// (default BatchBFS, the exact-enumeration Algorithm 1).
	Method Method
	// ImportanceBatch, when Method == Importance, draws this many
	// reference nodes per event-node BFS (§5.2.2; the paper uses 3 for
	// h=2 and 6 for h=3). 0 or 1 disables batching.
	ImportanceBatch int
	// Index is the precomputed |V^h_v| index of §4.2, required by the
	// Importance and Rejection methods (see Graph.BuildVicinityIndex).
	Index *VicinityIndex
	// Tail selects the alternative hypothesis (default BothTails);
	// §5.2's recall experiments run one-tailed tests matching the
	// planted sign.
	Tail Tail
	// Alpha is the significance level of the hypothesis test
	// (default 0.05, the level §5 uses throughout).
	Alpha float64
	// Seed makes the run deterministic; 0 selects a fixed default seed,
	// so identical calls always agree — the property that lets §5-style
	// experiments be replayed exactly.
	Seed uint64
	// UseSpearman switches the rank statistic from Kendall's τ (the
	// paper's measure, §3) to Spearman's ρ, the alternative its §8
	// mentions. Incompatible with Method == Importance.
	UseSpearman bool
	// IntensityA and IntensityB optionally weight each occurrence (§6's
	// event-intensity extension, e.g. how often an author used a
	// keyword). When non-nil they must have length NumNodes, be zero
	// outside the corresponding occurrence list, and positive on it.
	IntensityA, IntensityB []float64
	// Engines, when non-nil and bound to this graph, lends pooled BFS
	// engines to the density evaluator and the BatchBFS sampler so
	// repeated queries stop allocating O(NumNodes) scratch each (see
	// Graph.NewEnginePool). Results are identical with or without it.
	Engines *EnginePool
	// Ctx, when non-nil, lets the caller abandon the test: the density
	// phase (the dominant cost) checks it between chunks of traversals
	// and returns an error wrapping the context's cause
	// (errors.Is with context.Canceled / context.DeadlineExceeded
	// works). tescd threads each HTTP request's context through here so
	// disconnected clients stop burning BFS work. Nil runs to
	// completion.
	Ctx context.Context
}

// Result reports a TESC test.
type Result struct {
	// Tau is the estimated correlation in [-1, 1] (Kendall's τ of the
	// two events' reference densities; the weighted estimator t̃ for the
	// Importance method).
	Tau float64
	// Z is the significance score: under independence Z is standard
	// normal, so |Z| > 2.33 means one-tailed p < 0.01.
	Z float64
	// P is the p-value under the configured Tail.
	P float64
	// Significant is P < Alpha.
	Significant bool
	// Verdict is "positive", "negative" or "independent".
	Verdict string
	// N is the number of distinct reference nodes used.
	N int
	// Sampler names the strategy that produced the reference sample.
	Sampler string
	// Population is the enumerated reference population size |V^h_{a∪b}|
	// when the sampler materialized it (BatchBFS), -1 otherwise.
	Population int
	// SamplerBFS counts the h-hop BFS traversals spent selecting
	// reference nodes; DensityBFS those spent computing densities
	// (always N). Together they characterize a method's cost (§4.4).
	// Importance and Rejection memoize the vicinities of the event
	// nodes they draw, so for Importance SamplerBFS is at most the
	// number of draws and usually well below it.
	SamplerBFS int64
	DensityBFS int64
}

// ErrNoEventNodes is returned when both events have no occurrences.
var ErrNoEventNodes = errors.New("tesc: both events have no occurrences")

// Correlation runs the TESC hypothesis test between the two events whose
// occurrence node lists are va and vb.
func Correlation(g *Graph, va, vb []int, opts Options) (Result, error) {
	if opts.H < 1 {
		return Result{}, fmt.Errorf("tesc: Options.H must be >= 1 (the vicinity level)")
	}
	sa, err := toNodeSet(g, va)
	if err != nil {
		return Result{}, err
	}
	sb, err := toNodeSet(g, vb)
	if err != nil {
		return Result{}, err
	}
	problem, err := core.NewProblem(g.g, sa, sb)
	if err != nil {
		if errors.Is(err, core.ErrNoEventNodes) {
			return Result{}, ErrNoEventNodes
		}
		return Result{}, err
	}
	if opts.IntensityA != nil || opts.IntensityB != nil {
		if err := problem.SetIntensities(opts.IntensityA, opts.IntensityB); err != nil {
			return Result{}, err
		}
	}

	copts := core.Options{
		H:           opts.H,
		SampleSize:  opts.SampleSize,
		Alternative: opts.Tail.alternative(),
		Alpha:       opts.Alpha,
		Ctx:         opts.Ctx,
	}
	if opts.Engines != nil {
		copts.Engines = opts.Engines.p
	}
	if opts.UseSpearman {
		copts.Statistic = core.SpearmanRho
	}
	if copts.SampleSize == 0 {
		copts.SampleSize = 900
	}
	if copts.Alpha == 0 {
		copts.Alpha = 0.05
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x7e5c
	}
	copts.Rand = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))

	sampler, err := makeSampler(opts)
	if err != nil {
		return Result{}, err
	}
	copts.Sampler = sampler

	res, err := core.Test(problem, copts)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Tau:         res.Tau,
		Z:           res.Z,
		P:           res.P,
		Significant: res.Significant,
		Verdict:     res.Verdict(),
		N:           res.N,
		Sampler:     res.SamplerName,
		Population:  res.SamplerStats.Population,
		SamplerBFS:  res.SamplerStats.BFSCount,
		DensityBFS:  res.DensityBFS,
	}, nil
}

func makeSampler(opts Options) (core.Sampler, error) {
	switch opts.Method {
	case BatchBFS:
		s := &core.BatchBFSSampler{}
		if opts.Engines != nil {
			s.Engines = opts.Engines.p
		}
		return s, nil
	case Importance:
		if opts.Index == nil {
			return nil, fmt.Errorf("tesc: Importance sampling requires Options.Index (see Graph.BuildVicinityIndex)")
		}
		s := &core.ImportanceSampler{Index: opts.Index.idx, BatchSize: opts.ImportanceBatch}
		if opts.Engines != nil {
			s.Engines = opts.Engines.p
		}
		return s, nil
	case WholeGraph:
		return &core.WholeGraphSampler{}, nil
	case Rejection:
		if opts.Index == nil {
			return nil, fmt.Errorf("tesc: Rejection sampling requires Options.Index (see Graph.BuildVicinityIndex)")
		}
		return &core.RejectionSampler{Index: opts.Index.idx}, nil
	default:
		return nil, fmt.Errorf("tesc: unknown method %v", opts.Method)
	}
}

// TCResult reports the Transaction Correlation baseline: nodes treated
// as isolated transactions, association measured by Kendall's τ_b over
// the binary event indicators (the comparison columns of the paper's
// Tables 1–4).
type TCResult struct {
	TauB float64
	Z    float64
	P    float64 // two-sided
}

// TransactionCorrelation computes the TC baseline between two events.
func TransactionCorrelation(g *Graph, va, vb []int) (TCResult, error) {
	sa, err := toNodeSet(g, va)
	if err != nil {
		return TCResult{}, err
	}
	sb, err := toNodeSet(g, vb)
	if err != nil {
		return TCResult{}, err
	}
	r, err := baseline.TransactionCorrelation(sa, sb)
	if err != nil {
		return TCResult{}, err
	}
	return TCResult{TauB: r.TauB, Z: r.Z, P: r.PValue(stats.TwoSided)}, nil
}

func toNodeSet(g *Graph, nodes []int) (*graph.NodeSet, error) {
	n := g.NumNodes()
	ids := make([]graph.NodeID, len(nodes))
	for i, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("tesc: node %d outside [0,%d)", v, n)
		}
		ids[i] = graph.NodeID(v)
	}
	return graph.NewNodeSet(n, ids), nil
}
