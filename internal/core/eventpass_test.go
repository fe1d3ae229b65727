package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// perReference hides the *ImportanceSampler type from Test, so Test
// samples through SampleReferences and runs one BFS per reference node:
// the oracle of the event-centric pass.
type perReference struct{ *ImportanceSampler }

// TestEventCentricDensitiesMatchPerReference pins the event-centric
// density pass to the per-reference one: the same Result bit for bit
// (only DensityBFS may differ) and the same Density record for every
// reference node, over h = 1..3, BatchSize 0/1/3 and the memo at its
// default, a small and a zero cap, with event sets on both sides of
// the plan rule.
func TestEventCentricDensitiesMatchPerReference(t *testing.T) {
	small, off := 60, 0
	caps := map[string]*int{"default": nil, "small": &small, "off": &off}
	const n = 60
	var eventPass, perRefPass int
	for seed := uint64(0); seed < 10; seed++ {
		// From a handful of event nodes (event pass) to most of the
		// graph's vicinities (per-reference pass).
		k := []int{3, 8, 20, 60, 200}[seed%5]
		p, idx := erProblem(t, 400, 1000, k, k, 500+seed)
		for h := 1; h <= 3; h++ {
			for _, batch := range []int{0, 1, 3} {
				for capName, c := range caps {
					name := fmt.Sprintf("seed %d k=%d h=%d batch=%d memo=%s", seed, k, h, batch, capName)
					s := &ImportanceSampler{Index: idx, BatchSize: batch, memoCap: c}
					opts := DefaultOptions(h)
					opts.SampleSize = n
					opts.Alternative = stats.Greater
					opts.Sampler = s
					opts.Rand = rand.New(rand.NewPCG(seed, uint64(h)))
					got, err := Test(p, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					opts.Sampler = perReference{s}
					opts.Rand = rand.New(rand.NewPCG(seed, uint64(h)))
					want, err := Test(p, opts)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if want.DensityBFS != int64(want.N) {
						t.Fatalf("%s: per-reference pass ran %d traversals for %d nodes", name, want.DensityBFS, want.N)
					}

					sample, err := s.sample(p, h, n, rand.New(rand.NewPCG(seed, uint64(h))), true)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					useEvents := preferEventPass(sample.memo, sample.Nodes)
					// The event pass matches per node whether or not the
					// rule picks it.
					wantSA, wantSB, wantDS := NewDensityEvaluator(p, h).EvalAll(sample.Nodes)
					sa, sb, ds, traversals, err := evalByEvents(nil, p, sample.memo, sample.Nodes, graph.NewBFS(p.G))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(sa, wantSA) || !slices.Equal(sb, wantSB) || !slices.Equal(ds, wantDS) {
						t.Fatalf("%s: event-centric densities differ from EvalAll", name)
					}
					unmemoized := int64(0)
					for _, sp := range sample.memo.spans {
						if sp.end == 0 {
							unmemoized++
						}
					}
					sample.memo.release()
					if traversals != unmemoized {
						t.Fatalf("%s: %d traversals for %d unmemoized event nodes", name, traversals, unmemoized)
					}
					if useEvents {
						eventPass++
						if got.DensityBFS != traversals {
							t.Fatalf("%s: Test ran %d density traversals, the event pass %d", name, got.DensityBFS, traversals)
						}
					} else {
						perRefPass++
						if got.DensityBFS != int64(got.N) {
							t.Fatalf("%s: rule rejected the event pass, yet DensityBFS = %d for N = %d", name, got.DensityBFS, got.N)
						}
					}
					got.DensityBFS, want.DensityBFS = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: result %v differs from the per-reference %v", name, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d event-centric, %d per-reference", eventPass, perRefPass)
	if eventPass == 0 || perRefPass == 0 {
		t.Fatalf("battery covered one side of the rule only: %d event-centric, %d per-reference", eventPass, perRefPass)
	}
}

// symmetricDirected is an undirected random graph stored as a directed
// one, both arcs per edge: importance sampling stays sound on it (every
// drawn reference node sees its event node), yet Directed() reports
// true.
func symmetricDirected(t *testing.T, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	b := graph.NewDirectedBuilder(n)
	randomGraph(t, n, m, false, seed).ForEachEdge(func(u, v graph.NodeID) bool {
		b.AddEdge(u, v)
		b.AddEdge(v, u)
		return true
	})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Directed and intensity-weighted importance tests keep one BFS per
// reference node: the vicinity relation of a directed graph need not
// be symmetric, and weighted sums depend on Eval's visit order. The
// same problem undirected and unweighted takes the event pass.
func TestEventPassIneligibleProblems(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		directed, intensities bool
	}{{"eligible", false, false}, {"directed", true, false}, {"intensities", false, true}, {"both", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(t, 300, 900, false, 61)
			if tc.directed {
				g = symmetricDirected(t, 300, 900, 61)
			}
			p := randomProblem(t, g, 4, tc.intensities, 62)
			idx, err := vicinity.Build(g, 2, vicinity.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions(2)
			opts.SampleSize = 50
			opts.Sampler = &ImportanceSampler{Index: idx}
			res, err := Test(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			eventPass := res.DensityBFS < int64(res.N)
			if want := !tc.directed && !tc.intensities; eventPass != want {
				t.Fatalf("DensityBFS = %d for N = %d: event pass %v, want %v", res.DensityBFS, res.N, eventPass, want)
			}
		})
	}
}
