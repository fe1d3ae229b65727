package graph

import "fmt"

// BFS is a reusable breadth-first-search engine over a fixed graph.
//
// TESC testing performs thousands of h-hop BFS traversals per event pair
// (one per density evaluation, plus the traversals inside the samplers),
// so the engine keeps its frontier queues and an epoch-stamped visited
// array across calls: after warm-up a traversal performs zero heap
// allocations. The engine is NOT safe for concurrent use; each goroutine
// takes its own from the graph (see Graph.AcquireBFS).
type BFS struct {
	g       *Graph
	mark    []uint32
	epoch   uint32
	cur     []NodeID
	next    []NodeID
	visited []NodeID // Collect's flat visit-order buffer

	// Collect's dense visited stamps: one byte per node instead of
	// Run's four, so the randomly probed working set is 4x smaller —
	// the probe is the hot load of the flat kernels. Epochs 1..255
	// cycle; the wrap clear is a vectorized memclr (~µs per 255
	// traversals). Lazily allocated.
	mark8  []uint8
	epoch8 uint8
}

// NewBFS returns a BFS engine bound to g.
func NewBFS(g *Graph) *BFS {
	return &BFS{
		g:    g,
		mark: make([]uint32, g.NumNodes()),
	}
}

// Graph returns the graph the engine is bound to.
func (b *BFS) Graph() *Graph { return b.g }

// Rebind points the engine at a different graph with the same node
// count, keeping all its allocated scratch. Soundness rests on the
// scratch being purely per-traversal: the mark arrays are epoch
// stamps compared against the *current* traversal's epoch (stale
// stamps from traversals over the previous graph are never read as
// visited), and the frontier/visit buffers are reset by every
// traversal. A Delta.Compact successor rebinds the base graph's idle
// engines to itself (see AcquireBFS), so queries after a mutation
// allocate no O(|V|) scratch.
func (b *BFS) Rebind(g *Graph) error {
	if g.NumNodes() != len(b.mark) {
		return fmt.Errorf("graph: rebinding BFS engine for %d nodes to a %d-node graph", len(b.mark), g.NumNodes())
	}
	b.g = g
	return nil
}

func (b *BFS) bump() {
	b.epoch++
	if b.epoch == 0 { // epoch counter wrapped; reset stamps
		for i := range b.mark {
			b.mark[i] = 0
		}
		b.epoch = 1
	}
}

// Run performs a breadth-first search of depth at most h starting from
// sources, invoking visit exactly once per distinct reached node with its
// BFS depth (sources have depth 0). Duplicate sources are visited once.
//
// With len(sources) > 1 this is exactly the paper's Batch BFS
// (Algorithm 1): the multi-source traversal that retrieves V^h of a node
// set in one pass, equivalent to an (h+1)-hop BFS from a virtual node
// attached to every source, with worst-case cost O(|V|+|E|) instead of
// O(|sources|·(|V|+|E|)).
func (b *BFS) Run(sources []NodeID, h int, visit func(v NodeID, depth int)) {
	b.RunUntil(sources, h, func(v NodeID, depth int) bool {
		visit(v, depth)
		return true
	})
}

// RunUntil is Run with early termination: the traversal stops as soon as
// visit returns false (the node it returned false for has still been
// visited). Whole-graph sampling (Algorithm 3) uses this to abort the
// eligibility BFS the moment an event node is seen.
func (b *BFS) RunUntil(sources []NodeID, h int, visit func(v NodeID, depth int) bool) {
	if h < 0 {
		return
	}
	b.bump()
	b.cur = b.cur[:0]
	for _, s := range sources {
		if b.mark[s] != b.epoch {
			b.mark[s] = b.epoch
			b.cur = append(b.cur, s)
			if !visit(s, 0) {
				return
			}
		}
	}
	for depth := 1; depth <= h && len(b.cur) > 0; depth++ {
		b.next = b.next[:0]
		for _, v := range b.cur {
			for _, u := range b.g.Neighbors(v) {
				if b.mark[u] != b.epoch {
					b.mark[u] = b.epoch
					b.next = append(b.next, u)
					if !visit(u, depth) {
						return
					}
				}
			}
		}
		b.cur, b.next = b.next, b.cur
	}
}

// Collect performs the same traversal as Run but without invoking a
// callback per node: the visited set is accumulated level by level in
// one flat buffer that doubles as the frontier queue (nodes of BFS
// level d occupy a contiguous run of the buffer), which removes the
// per-node indirect call from the hot loop. The returned slice lists
// every distinct reached node in visit order — identical to the order
// Run invokes its callback in — and aliases the engine's internal
// buffer: it is valid only until the next traversal on this engine.
//
// This is the traversal half of the repository's decoupled
// traversal/computation density kernels (docs/PERFORMANCE.md): callers
// scan the returned slice with flat array kernels instead of paying a
// closure call per visited node.
func (b *BFS) Collect(sources []NodeID, h int) []NodeID {
	vis := b.visited[:0]
	if h < 0 {
		return vis
	}
	if b.mark8 == nil {
		b.mark8 = make([]uint8, b.g.NumNodes())
	}
	b.epoch8++
	if b.epoch8 == 0 {
		clear(b.mark8)
		b.epoch8 = 1
	}
	mark, epoch := b.mark8, b.epoch8
	for _, s := range sources {
		if mark[s] != epoch {
			mark[s] = epoch
			vis = append(vis, s)
		}
	}
	offsets, adj := b.g.offsets, b.g.adj
	// The expansion loop is branchless in the visited test: marking is
	// idempotent so the stamp store runs unconditionally, the candidate
	// is written to the buffer unconditionally, and the cursor advances
	// by the comparison result (SETcc + ADD, no branch). The visited
	// probe is a ~50% data-dependent branch in overlapping vicinities —
	// exactly what branch predictors can't learn — so trading it for a
	// dead store measurably beats the naive loop.
	buf := vis[:cap(vis)]
	n := len(vis)
	lo, hi := 0, n
	for depth := 1; depth <= h && lo < hi; depth++ {
		for j := lo; j < hi; j++ {
			v := buf[j]
			row := adj[offsets[v]:offsets[v+1]]
			if len(buf)-n < len(row) {
				grown := make([]NodeID, (n+len(row))*2+64)
				copy(grown, buf[:n])
				buf = grown
			}
			for _, u := range row {
				inc := 0
				if mark[u] != epoch {
					inc = 1
				}
				mark[u] = epoch
				buf[n] = u
				n += inc
			}
		}
		lo, hi = hi, n
	}
	b.visited = buf[:n]
	return b.visited
}

// Slots lends out Run's per-node visited stamps as a node-indexed
// uint32 map for use between traversals; Collect never reads or writes
// them, so a caller that only collects may keep entries across its
// Collect calls. Entries hold arbitrary stale values: a lookup must
// verify its hit (for a node→slot map, s < len(keys) && keys[s] == v).
// Before the engine's next Run or RunUntil — and before it goes back to
// the graph — the caller must zero every entry it wrote; zero is never
// a live stamp, so that costs O(entries written), not O(|V|).
func (b *BFS) Slots() []uint32 { return b.mark }

// Vicinity appends every node of the h-vicinity of u (Definition 1:
// all nodes within distance h of u, including u itself) to out and
// returns the extended slice. Routed through the flat Collect kernel.
func (b *BFS) Vicinity(u NodeID, h int, out []NodeID) []NodeID {
	return append(out, b.Collect([]NodeID{u}, h)...)
}

// VicinitySize returns |V^h_u|, the node count of u's h-vicinity.
func (b *BFS) VicinitySize(u NodeID, h int) int {
	return len(b.Collect([]NodeID{u}, h))
}

// SetVicinity appends every node of the h-vicinity of the node set
// sources (Definition 2) to out and returns the extended slice. This is
// the paper's Batch BFS (Algorithm 1) used to materialize the full
// reference node set V^h_{a∪b}, routed through the flat Collect kernel
// — the multi-source traversal is a sampler-side hot path too (one per
// screened pair).
func (b *BFS) SetVicinity(sources []NodeID, h int, out []NodeID) []NodeID {
	return append(out, b.Collect(sources, h)...)
}

// Distance returns the hop distance from u to v, or -1 if v is not
// reachable from u. It expands at most the whole graph.
func (b *BFS) Distance(u, v NodeID) int {
	if u == v {
		return 0
	}
	dist := -1
	b.Run([]NodeID{u}, b.g.NumNodes(), func(w NodeID, d int) {
		if w == v && dist < 0 {
			dist = d
		}
	})
	return dist
}

// Eccentricity returns the largest BFS depth reached from u (the
// eccentricity of u within its connected component).
func (b *BFS) Eccentricity(u NodeID) int {
	max := 0
	b.Run([]NodeID{u}, b.g.NumNodes(), func(_ NodeID, d int) {
		if d > max {
			max = d
		}
	})
	return max
}

// NodesAtDistance appends to out every node at hop distance exactly d
// from u and returns the extended slice.
func (b *BFS) NodesAtDistance(u NodeID, d int, out []NodeID) []NodeID {
	b.Run([]NodeID{u}, d, func(v NodeID, depth int) {
		if depth == d {
			out = append(out, v)
		}
	})
	return out
}
