package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"tesc"
	"tesc/api"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/simulate"
)

// Workload sizes shared by every workload (see README.md).
const (
	graphScale    = 1.0 // coauthorship surrogate: 100,000 nodes, ~358k edges
	hops          = 2   // vicinity level h of every query
	plantedPairs  = 8   // planted positive pairs the correlate traffic rotates over
	plantedOcc    = 500 // occurrences per planted event
	flipsPerBatch = 10  // edge flips per POST /edges batch
	topK          = 10  // k of the planned screen

	// benchGraph carries the planted pairs and takes the mutations;
	// vocabGraph is the same topology with the K=32 screening
	// vocabulary, so a screen job sweeps exactly its 496 pairs.
	benchGraph = "bench"
	vocabGraph = "vocab"
)

// world is everything a run derives from its seed: the graph, the
// planted pairs and the screening vocabulary. The server only ever sees
// these generated inputs.
type world struct {
	seed  uint64
	g     *tesc.Graph
	edges string // edge-list text registered with the server
	// pairs[i] holds the occurrence lists of planted pair i.
	pairs [plantedPairs][2][]int
	vocab *events.Store
}

func newWorld(seed uint64) (*world, error) {
	w := &world{seed: seed, g: tesc.RandomCoauthorshipGraph(graphScale, seed)}
	rng := rngFor(seed, 0x9e7f0a11)
	for i := range w.pairs {
		p, err := simulate.PositivePair(w.g.Internal(), simulate.Config{H: hops, Occurrences: plantedOcc}, rng)
		if err != nil {
			return nil, fmt.Errorf("planting pair %d: %w", i, err)
		}
		w.pairs[i] = [2][]int{dedup(p.Va), dedup(p.Vb)}
	}
	w.vocab = plannerVocabulary(w.g.Internal(), rng)
	var sb strings.Builder
	if err := w.g.WriteGraph(&sb); err != nil {
		return nil, err
	}
	w.edges = sb.String()
	return w, nil
}

func rngFor(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// plannerVocabulary plants the K=32 vocabulary of tescbench -topk: 8
// signal events co-located in one community region (their pairs
// attract) and 24 background events in disjoint community blocks. It
// repeats cmd/tescbench's function of the same name, which a main
// package cannot export.
func plannerVocabulary(g *graph.Graph, rng *rand.Rand) *events.Store {
	b := events.NewBuilder(g.NumNodes())
	for e := 0; e < 8; e++ {
		name := fmt.Sprintf("sig-%d", e)
		for c := 0; c < 10; c++ {
			for k := 0; k < 50; k++ {
				b.Add(name, graph.NodeID(c*80+rng.IntN(80)))
			}
		}
	}
	for e := 0; e < 24; e++ {
		name := fmt.Sprintf("bg-%02d", e)
		base := (20 + 2*e) * 80
		for k := 0; k < 500; k++ {
			b.Add(name, graph.NodeID(base+rng.IntN(160)))
		}
	}
	return b.Build()
}

// dedup returns the distinct node IDs of vs as ints, in first-seen order.
func dedup(vs []graph.NodeID) []int {
	seen := make(map[graph.NodeID]bool, len(vs))
	out := make([]int, 0, len(vs))
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, int(v))
		}
	}
	return out
}

func pairNames(i int) (a, b string) {
	return fmt.Sprintf("pa-%d", i), fmt.Sprintf("pb-%d", i)
}

// plantedEvents is the registration body of the planted pairs.
func (w *world) plantedEvents() map[string][]int {
	ev := make(map[string][]int, 2*plantedPairs)
	for i, p := range w.pairs {
		a, b := pairNames(i)
		ev[a], ev[b] = p[0], p[1]
	}
	return ev
}

// vocabEvents is the registration body of the screening vocabulary.
func (w *world) vocabEvents() map[string][]int {
	ev := make(map[string][]int, w.vocab.NumEvents())
	for _, name := range w.vocab.Names() {
		occ := w.vocab.Occurrences(name)
		nodes := make([]int, len(occ))
		for i, v := range occ {
			nodes[i] = int(v)
		}
		ev[name] = nodes
	}
	return ev
}

// correlateRequest is the importance-sampled query of planted pair i.
func correlateRequest(i int, seed uint64) api.CorrelateRequest {
	a, b := pairNames(i)
	return api.CorrelateRequest{A: a, B: b, H: hops, Method: "importance", Tail: "positive", Seed: seed}
}

// correlateOracle answers correlateRequest(i, seed) with the library on
// graph g and its index.
func (w *world) correlateOracle(g *tesc.Graph, idx *tesc.VicinityIndex, i int, seed uint64) (tesc.Result, error) {
	return tesc.Correlation(g, w.pairs[i][0], w.pairs[i][1], tesc.Options{
		H: hops, Method: tesc.Importance, Tail: tesc.PositiveTail, Seed: seed, Index: idx,
	})
}

// screenRequest is the exhaustive sweep (k = 0) or planned top-k screen
// of the vocabulary.
func screenRequest(k int, seed uint64) api.ScreenRequest {
	return api.ScreenRequest{H: hops, Tail: "positive", Seed: seed, TopK: k}
}
