package graph

import (
	"fmt"
	"sort"
)

// EdgeChange is one edge flip: the insertion (Insert == true) or
// deletion of the edge {U, V} (the arc U→V on directed graphs). A
// sequence of EdgeChanges is the unit the dynamic-graph subsystem
// exchanges: graphgen produces them as workloads, Delta accumulates and
// compacts them, and vicinity.Index.ApplyDelta consumes them to repair
// the |V^h_v| index incrementally.
type EdgeChange struct {
	U, V   NodeID
	Insert bool
}

// Delta is a mutable edge-set overlay on an immutable CSR Graph: edge
// insertions and deletions accumulate in small hash overlays while the
// base graph stays shared and untouched, and Compact merges both into a
// fresh CSR snapshot in O(n + m + Δ log Δ) — no re-sort of the full
// adjacency. This is the write path of the dynamic-graph subsystem: the
// paper's index structures assume an immutable graph (§4.2), so updates
// are staged here and published as new snapshots.
//
// A Delta is not safe for concurrent use; the serving tier serializes
// writers and publishes compacted snapshots to readers.
type Delta struct {
	base    *Graph
	added   map[uint64]struct{}
	removed map[uint64]struct{}
	log     []EdgeChange
	m       int64 // edge count of base+overlay
}

// NewDelta returns an empty overlay over base.
func NewDelta(base *Graph) *Delta {
	return &Delta{
		base:    base,
		added:   make(map[uint64]struct{}),
		removed: make(map[uint64]struct{}),
		m:       base.NumEdges(),
	}
}

// Base returns the immutable graph under the overlay.
func (d *Delta) Base() *Graph { return d.base }

// key normalizes an edge to a map key: undirected edges are stored with
// the smaller endpoint first, directed arcs keep their orientation.
func (d *Delta) key(u, v NodeID) uint64 {
	if !d.base.directed && u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (d *Delta) check(u, v NodeID) error {
	if !d.base.Valid(u) || !d.base.Valid(v) {
		return fmt.Errorf("graph: edge (%d,%d) outside node range [0,%d)", u, v, d.base.NumNodes())
	}
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d) not allowed", u, v)
	}
	return nil
}

// HasEdge reports whether the edge {u, v} (arc u→v when directed)
// exists in the overlaid graph.
func (d *Delta) HasEdge(u, v NodeID) bool {
	k := d.key(u, v)
	if _, ok := d.added[k]; ok {
		return true
	}
	if _, ok := d.removed[k]; ok {
		return false
	}
	return d.base.HasEdge(u, v)
}

// InsertEdge stages the insertion of {u, v}. It returns true if the
// edge was absent (the overlay changed), false if it already exists.
func (d *Delta) InsertEdge(u, v NodeID) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if d.HasEdge(u, v) {
		return false, nil
	}
	k := d.key(u, v)
	if _, ok := d.removed[k]; ok {
		delete(d.removed, k) // re-inserting a staged deletion cancels it
	} else {
		d.added[k] = struct{}{}
	}
	d.m++
	d.log = append(d.log, EdgeChange{U: u, V: v, Insert: true})
	return true, nil
}

// DeleteEdge stages the deletion of {u, v}. It returns true if the edge
// existed (the overlay changed), false if it was already absent.
func (d *Delta) DeleteEdge(u, v NodeID) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if !d.HasEdge(u, v) {
		return false, nil
	}
	k := d.key(u, v)
	if _, ok := d.added[k]; ok {
		delete(d.added, k) // deleting a staged insertion cancels it
	} else {
		d.removed[k] = struct{}{}
	}
	d.m--
	d.log = append(d.log, EdgeChange{U: u, V: v, Insert: false})
	return true, nil
}

// Apply stages a batch of changes, skipping no-ops (inserting a present
// edge, deleting an absent one). It returns the changes that took
// effect — the exact flip list an incremental index update must see.
func (d *Delta) Apply(changes []EdgeChange) ([]EdgeChange, error) {
	start := len(d.log)
	for _, c := range changes {
		var err error
		if c.Insert {
			_, err = d.InsertEdge(c.U, c.V)
		} else {
			_, err = d.DeleteEdge(c.U, c.V)
		}
		if err != nil {
			return nil, err
		}
	}
	return d.log[start:], nil
}

// NumEdges returns the edge count of the overlaid graph (arc count when
// directed).
func (d *Delta) NumEdges() int64 { return d.m }

// Pending returns the number of staged edge flips relative to the base
// graph (cancelling pairs collapse), the figure compaction policies key
// on.
func (d *Delta) Pending() int { return len(d.added) + len(d.removed) }

// Changes returns every change applied since the delta was created, in
// order, including pairs that later cancelled. The slice aliases
// internal storage.
func (d *Delta) Changes() []EdgeChange { return d.log }

// Compact merges the overlay into a fresh CSR snapshot and resets the
// delta onto it: a single O(n + m + Δ log Δ) pass that keeps each
// adjacency list sorted by merging the base list with the per-node
// staged insertions, instead of rebuilding (and re-sorting) the whole
// graph through a Builder. The successor inherits the base graph's
// idle BFS engines as its queries need them (the node count is
// unchanged), so the first queries on the new snapshot reuse warm
// scratch; until then the base keeps them.
func (d *Delta) Compact() *Graph {
	if len(d.added) == 0 && len(d.removed) == 0 {
		return d.base
	}
	g := d.base
	n := g.NumNodes()

	// Per-node staged insertions and removals, as half-edges (both
	// directions for undirected graphs), insertions sorted per node.
	// Nodes untouched by the overlay — almost all of them under a small
	// delta — keep their base adjacency via one bulk copy, so the merge
	// runs at memcpy speed instead of per-edge hash lookups.
	ins := make(map[NodeID][]NodeID, len(d.added)*2)
	for k := range d.added {
		u, v := NodeID(k>>32), NodeID(uint32(k))
		ins[u] = append(ins[u], v)
		if !g.directed {
			ins[v] = append(ins[v], u)
		}
	}
	for u := range ins {
		s := ins[u]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	del := make(map[NodeID][]NodeID, len(d.removed)*2)
	for k := range d.removed {
		u, v := NodeID(k>>32), NodeID(uint32(k))
		del[u] = append(del[u], v)
		if !g.directed {
			del[v] = append(del[v], u)
		}
	}
	for u := range del {
		s := del[u]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}

	offsets := make([]int64, n+1)
	half := int64(d.m)
	if !g.directed {
		half *= 2
	}
	adj := make([]NodeID, 0, half)
	for u := 0; u < n; u++ {
		offsets[u] = int64(len(adj))
		base := g.Neighbors(NodeID(u))
		add, gone := ins[NodeID(u)], del[NodeID(u)]
		if len(add) == 0 && len(gone) == 0 {
			adj = append(adj, base...)
			continue
		}
		// Three-cursor sorted merge: base minus gone, interleaved with
		// add — O(degree + staged changes) for the node.
		i, j, k := 0, 0, 0
		for i < len(base) || j < len(add) {
			switch {
			case j == len(add) || (i < len(base) && base[i] < add[j]):
				for k < len(gone) && gone[k] < base[i] {
					k++
				}
				if k < len(gone) && gone[k] == base[i] {
					k++
				} else {
					adj = append(adj, base[i])
				}
				i++
			default:
				adj = append(adj, add[j])
				j++
			}
		}
	}
	offsets[n] = int64(len(adj))

	out := &Graph{offsets: offsets, adj: adj, m: d.m, directed: g.directed}
	out.pred.Store(g)
	g.pred.Store(nil)
	d.base = out
	clear(d.added)
	clear(d.removed)
	d.log = d.log[:0]
	return out
}
