package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
)

// EvalReference is the original closure-based density kernel: one
// BFS.Run with a visit callback testing the occurrence bitsets per
// node. It is the differential-testing oracle for Eval and
// MultiEvaluator, and the "before" side of the density benchmarks; it
// advances BFSCount like Eval.
func (e *DensityEvaluator) EvalReference(r graph.NodeID) Density {
	e.BFSCount++
	var d Density
	va, vb := e.p.Va, e.p.Vb
	ia, ib := e.p.IntensityA, e.p.IntensityB
	e.bfs.Run([]graph.NodeID{r}, e.h, func(v graph.NodeID, _ int) {
		d.VicinitySize++
		inA := va.Contains(v)
		inB := vb.Contains(v)
		if inA {
			d.CountA++
			if ia != nil {
				d.SumA += ia[v]
			} else {
				d.SumA++
			}
		}
		if inB {
			d.CountB++
			if ib != nil {
				d.SumB += ib[v]
			} else {
				d.SumB++
			}
		}
		if inA || inB {
			d.CountUnion++
		}
	})
	return d
}

// randomGraph builds a seeded sparse random graph, directed or not.
func randomGraph(t *testing.T, n int, m int, directed bool, seed uint64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	var b *graph.Builder
	if directed {
		b = graph.NewDirectedBuilder(n)
	} else {
		b = graph.NewBuilder(n)
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomProblem plants two random events (and optionally intensities) on g.
func randomProblem(t *testing.T, g *graph.Graph, occ int, intensities bool, seed uint64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed^0x5151, seed))
	n := g.NumNodes()
	pick := func() []graph.NodeID {
		vs := make([]graph.NodeID, occ)
		for i := range vs {
			vs[i] = graph.NodeID(rng.IntN(n))
		}
		return vs
	}
	va := graph.NewNodeSet(n, pick())
	vb := graph.NewNodeSet(n, pick())
	p := MustNewProblem(g, va, vb)
	if intensities {
		ia := make([]float64, n)
		ib := make([]float64, n)
		for _, v := range va.Members() {
			ia[v] = 0.25 + rng.Float64()
		}
		for _, v := range vb.Members() {
			ib[v] = 0.25 + rng.Float64()
		}
		if err := p.SetIntensities(ia, ib); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestFlatKernelMatchesReference pins the tentpole invariant: the flat
// closure-free density kernel returns bit-identical Density records to
// the retained callback-based reference kernel, over directed and
// undirected graphs, h = 1..3, with and without intensities. Floats are
// compared with ==: the flat kernel must accumulate in the reference
// kernel's exact visit order.
func TestFlatKernelMatchesReference(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, intensities := range []bool{false, true} {
			for h := 1; h <= 3; h++ {
				name := fmt.Sprintf("directed=%v/intensities=%v/h=%d", directed, intensities, h)
				t.Run(name, func(t *testing.T) {
					g := randomGraph(t, 400, 1000, directed, uint64(h)*7+11)
					p := randomProblem(t, g, 40, intensities, uint64(h)*13+3)
					flat := NewDensityEvaluator(p, h)
					ref := NewDensityEvaluator(p, h)
					for v := 0; v < g.NumNodes(); v++ {
						df := flat.Eval(graph.NodeID(v))
						dr := ref.EvalReference(graph.NodeID(v))
						if df != dr {
							t.Fatalf("node %d: flat %+v != reference %+v", v, df, dr)
						}
					}
					if flat.BFSCount != ref.BFSCount {
						t.Fatalf("BFSCount %d != %d", flat.BFSCount, ref.BFSCount)
					}
				})
			}
		}
	}
}

// TestMultiEvaluatorMatchesReference checks that one MultiEvaluator BFS
// reproduces, for every event of a K-event vocabulary, exactly the
// occurrence count and vicinity size the single-pair reference kernel
// computes.
func TestMultiEvaluatorMatchesReference(t *testing.T) {
	const K = 5
	for _, directed := range []bool{false, true} {
		for h := 1; h <= 3; h++ {
			t.Run(fmt.Sprintf("directed=%v/h=%d", directed, h), func(t *testing.T) {
				g := randomGraph(t, 300, 900, directed, uint64(h)*29+1)
				rng := rand.New(rand.NewPCG(99, uint64(h)))
				n := g.NumNodes()
				sets := make([]*graph.NodeSet, K)
				for k := range sets {
					vs := make([]graph.NodeID, 30)
					for i := range vs {
						vs[i] = graph.NodeID(rng.IntN(n))
					}
					sets[k] = graph.NewNodeSet(n, vs)
				}
				mem, err := NewEventMembership(n, sets)
				if err != nil {
					t.Fatal(err)
				}
				multi, err := NewMultiEvaluator(g, mem, h, nil)
				if err != nil {
					t.Fatal(err)
				}
				counts := make([]int32, K)
				bfs := graph.NewBFS(g)
				for v := 0; v < n; v += 3 {
					size := multi.Eval(graph.NodeID(v), counts)
					vic := bfs.Vicinity(graph.NodeID(v), h, nil)
					if size != len(vic) {
						t.Fatalf("node %d: size %d != |vicinity| %d", v, size, len(vic))
					}
					for k, s := range sets {
						if want := s.CountIn(vic); int(counts[k]) != want {
							t.Fatalf("node %d event %d: count %d != %d", v, k, counts[k], want)
						}
					}
				}
			})
		}
	}
}

// TestEvalAllParallelBFSCountRaceSafe pins that the atomic-counter
// work distribution returns results identical to EvalAll and that
// BFSCount folds in race-safely (exactly one increment per node, also
// when two parallel evaluations share the evaluator — the plain `+=`
// the old feeder-channel implementation used would lose counts here).
func TestEvalAllParallelBFSCountRaceSafe(t *testing.T) {
	g := randomGraph(t, 500, 1500, false, 77)
	p := randomProblem(t, g, 50, false, 78)
	rs := make([]graph.NodeID, 0, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		rs = append(rs, graph.NodeID(v))
	}
	seq := NewDensityEvaluator(p, 2)
	sa0, sb0, ds0 := seq.EvalAll(rs)

	par := NewDensityEvaluator(p, 2)
	done := make(chan struct{})
	go func() { // concurrent use of one evaluator: counts must not be lost
		par.EvalAllParallel(rs, 4)
		close(done)
	}()
	sa1, sb1, ds1 := par.EvalAllParallel(rs, 4)
	<-done

	for i := range rs {
		if sa0[i] != sa1[i] || sb0[i] != sb1[i] || ds0[i] != ds1[i] {
			t.Fatalf("node %d: parallel result diverges", i)
		}
	}
	if want := int64(2 * len(rs)); par.BFSCount != want {
		t.Fatalf("BFSCount = %d, want %d (two concurrent passes)", par.BFSCount, want)
	}
	if seq.BFSCount != int64(len(rs)) {
		t.Fatalf("sequential BFSCount = %d, want %d", seq.BFSCount, len(rs))
	}
}

// TestPooledEnginesIdenticalResults runs the same test with and without
// a shared engine pool: pooling is invisible in the statistics.
func TestPooledEnginesIdenticalResults(t *testing.T) {
	g := randomGraph(t, 400, 1200, false, 5)
	p := randomProblem(t, g, 40, false, 6)
	base := Options{H: 2, SampleSize: 120, Alpha: 0.05, Rand: rand.New(rand.NewPCG(9, 9))}
	r0, err := Test(p, base)
	if err != nil {
		t.Fatal(err)
	}
	pooled := base
	pooled.Rand = rand.New(rand.NewPCG(9, 9))
	pooled.Engines = graph.NewEnginePool(g)
	pooled.Sampler = &BatchBFSSampler{Engines: pooled.Engines}
	r1, err := Test(p, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Tau != r1.Tau || r0.Z != r1.Z || r0.P != r1.P || r0.N != r1.N {
		t.Fatalf("pooled result diverges: %+v vs %+v", r0, r1)
	}
	for i := range r0.SA {
		if r0.SA[i] != r1.SA[i] || r0.SB[i] != r1.SB[i] {
			t.Fatalf("density vector diverges at %d", i)
		}
	}
}
