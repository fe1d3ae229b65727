package graph

import (
	"math/rand/v2"
	"testing"
)

func randomTestGraph(t *testing.T, n, m int, directed bool, seed uint64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*3+1))
	var b *Builder
	if directed {
		b = NewDirectedBuilder(n)
	} else {
		b = NewBuilder(n)
	}
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCollectMatchesRunOrder pins Collect's contract: the returned
// slice is exactly the sequence of nodes Run's callback would see, in
// the same order — the property the flat density kernels rely on for
// bit-identical intensity sums.
func TestCollectMatchesRunOrder(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := randomTestGraph(t, 200, 600, directed, 12)
		b := NewBFS(g)
		for h := 0; h <= 3; h++ {
			for v := 0; v < g.NumNodes(); v += 7 {
				var viaRun []NodeID
				b.Run([]NodeID{NodeID(v)}, h, func(u NodeID, _ int) {
					viaRun = append(viaRun, u)
				})
				got := b.Collect([]NodeID{NodeID(v)}, h)
				if len(got) != len(viaRun) {
					t.Fatalf("directed=%v h=%d v=%d: Collect %d nodes, Run %d", directed, h, v, len(got), len(viaRun))
				}
				for i := range got {
					if got[i] != viaRun[i] {
						t.Fatalf("directed=%v h=%d v=%d: order diverges at %d: %d vs %d",
							directed, h, v, i, got[i], viaRun[i])
					}
				}
			}
		}
		// Multi-source with duplicate sources, like the batch samplers use.
		sources := []NodeID{3, 9, 3, 27}
		var viaRun []NodeID
		b.Run(sources, 2, func(u NodeID, _ int) { viaRun = append(viaRun, u) })
		got := b.Collect(sources, 2)
		if len(got) != len(viaRun) {
			t.Fatalf("multi-source: %d vs %d nodes", len(got), len(viaRun))
		}
		for i := range got {
			if got[i] != viaRun[i] {
				t.Fatalf("multi-source order diverges at %d", i)
			}
		}
	}
}

// TestCollectNegativeDepth matches Run's h < 0 no-op contract.
func TestCollectNegativeDepth(t *testing.T) {
	g := randomTestGraph(t, 10, 20, false, 1)
	b := NewBFS(g)
	if got := b.Collect([]NodeID{0}, -1); len(got) != 0 {
		t.Fatalf("Collect(h=-1) visited %d nodes", len(got))
	}
}
