package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/sampling"
	"tesc/internal/vicinity"
)

// rejectionOracle is RejectionSampler's kernel without the vicinity
// memo: a fresh h-hop BFS from the drawn event node on every draw. The
// memoized sampler must reproduce its nodes and draw counts exactly.
func rejectionOracle(p *Problem, idx *vicinity.Index, h, n int, rng *rand.Rand) (RefSample, error) {
	bfs := graph.NewBFS(p.G)
	eventNodes := p.EventNodes()
	alias, err := sampling.NewAlias(idx.Weights(eventNodes, h))
	if err != nil {
		return RefSample{}, err
	}
	var st SamplerStats
	st.Population = -1
	seen := make(map[graph.NodeID]bool, n)
	nodes := make([]graph.NodeID, 0, n)
	var buf []graph.NodeID
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		st.Draws++
		v := eventNodes[alias.Draw(rng)]
		buf = bfs.Vicinity(v, h, buf[:0])
		st.BFSCount++
		u := buf[rng.IntN(len(buf))]
		c := 0
		bfs.Run([]graph.NodeID{u}, h, func(w graph.NodeID, _ int) {
			if p.Union.Contains(w) {
				c++
			}
		})
		st.BFSCount++
		if c < 1 || rng.Float64() >= 1/float64(c) {
			st.Rejections++
			continue
		}
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	return RefSample{Nodes: nodes, Stats: st}, nil
}

func TestRejectionSamplerMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 16; seed++ {
		p, idx := erProblem(t, 300, 900, 8, 8, 200+seed)
		for h := 1; h <= 3; h++ {
			want, werr := rejectionOracle(p, idx, h, 40, rand.New(rand.NewPCG(seed, uint64(h))))
			got, gerr := (&RejectionSampler{Index: idx}).SampleReferences(p, h, 40, rand.New(rand.NewPCG(seed, uint64(h))))
			if werr != gerr {
				t.Fatalf("seed %d h=%d: err %v, oracle %v", seed, h, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if !slices.Equal(got.Nodes, want.Nodes) {
				t.Fatalf("seed %d h=%d: nodes differ from the oracle", seed, h)
			}
			if got.Stats.Draws != want.Stats.Draws || got.Stats.Rejections != want.Stats.Rejections {
				t.Fatalf("seed %d h=%d: stats %+v, oracle %+v", seed, h, got.Stats, want.Stats)
			}
			// Step 2 traversals are saved on every repeated event node
			// whose vicinity fits the arena; none are added.
			if got.Stats.BFSCount > want.Stats.BFSCount {
				t.Fatalf("seed %d h=%d: BFSCount %d exceeds the oracle's %d",
					seed, h, got.Stats.BFSCount, want.Stats.BFSCount)
			}
		}
	}
}

// memoVariants returns the same sampler with the vicinity memo at its
// |V| default, capped small enough that some vicinities spill, and off.
func memoVariants(mk func(memoCap *int) Sampler) map[string]Sampler {
	small, off := 50, 0
	return map[string]Sampler{"on": mk(nil), "capped": mk(&small), "off": mk(&off)}
}

// TestVicinityMemoDifferential pins the memo as a pure cache: on, capped
// and off it yields the same sample and the same full test result. Only
// the traversal counts may differ: the sampler's may only grow as the
// cap shrinks, and an importance test's density phase traverses the
// event nodes the memo did not hold.
func TestVicinityMemoDifferential(t *testing.T) {
	kinds := map[string]func(idx *vicinity.Index) func(memoCap *int) Sampler{
		"importance": func(idx *vicinity.Index) func(*int) Sampler {
			return func(c *int) Sampler { return &ImportanceSampler{Index: idx, memoCap: c} }
		},
		"importance-batch3": func(idx *vicinity.Index) func(*int) Sampler {
			return func(c *int) Sampler { return &ImportanceSampler{Index: idx, BatchSize: 3, memoCap: c} }
		},
		"rejection": func(idx *vicinity.Index) func(*int) Sampler {
			return func(c *int) Sampler { return &RejectionSampler{Index: idx, memoCap: c} }
		},
	}
	const seeds = 64
	var spills, savings int // guards against a vacuous battery
	for seed := uint64(0); seed < seeds; seed++ {
		// 400 nodes, mean degree 6: at h=3 the event vicinities sum to
		// well over |V|, so the default cap binds too.
		p, idx := erProblem(t, 400, 1200, 4+int(seed%12), 4+int(seed%7), 300+seed)
		for h := 1; h <= 3; h++ {
			for kind, mk := range kinds {
				variants := memoVariants(mk(idx))
				samples := map[string]RefSample{}
				results := map[string]Result{}
				for name, s := range variants {
					sample, err := s.SampleReferences(p, h, 60, rand.New(rand.NewPCG(seed, uint64(h))))
					if err != nil {
						t.Fatalf("%s/%s seed %d h=%d: %v", kind, name, seed, h, err)
					}
					opts := DefaultOptions(h)
					opts.SampleSize = 60
					opts.Sampler = s
					opts.Rand = rand.New(rand.NewPCG(seed, uint64(h)))
					res, err := Test(p, opts)
					if err != nil {
						t.Fatalf("%s/%s seed %d h=%d: %v", kind, name, seed, h, err)
					}
					samples[name], results[name] = sample, res
				}
				on, capped, off := samples["on"].Stats.BFSCount, samples["capped"].Stats.BFSCount, samples["off"].Stats.BFSCount
				if on > capped || capped > off {
					t.Fatalf("%s seed %d h=%d: BFSCount on/capped/off = %d/%d/%d, want non-decreasing",
						kind, seed, h, on, capped, off)
				}
				if on < capped {
					spills++
				}
				if capped < off {
					savings++
				}
				for name := range variants {
					s, r := samples[name], results[name]
					s.Stats.BFSCount, r.SamplerStats.BFSCount, r.DensityBFS = 0, 0, 0
					ref, refRes := samples["off"], results["off"]
					ref.Stats.BFSCount, refRes.SamplerStats.BFSCount, refRes.DensityBFS = 0, 0, 0
					if !reflect.DeepEqual(s, ref) {
						t.Fatalf("%s/%s seed %d h=%d: sample differs from memo off", kind, name, seed, h)
					}
					if !reflect.DeepEqual(r, refRes) {
						t.Fatalf("%s/%s seed %d h=%d: result %v differs from memo off %v", kind, name, seed, h, r, refRes)
					}
				}
			}
		}
	}
	if spills == 0 || savings == 0 {
		t.Fatalf("battery never exercised the cap: %d spilling and %d saving cases", spills, savings)
	}
}

// TestImportanceSamplerTraversesDistinctEventNodes checks the memo's
// work bound: with the memo on and room for every vicinity, the
// sampler traverses each event node at most once however many draws it
// makes, and a reused engine changes nothing in the sample.
func TestImportanceSamplerTraversesDistinctEventNodes(t *testing.T) {
	p, idx := erProblem(t, 2000, 5000, 10, 10, 91)
	for _, batch := range []int{1, 3} {
		s := &ImportanceSampler{Index: idx, BatchSize: batch}
		for i := 0; i < 3; i++ {
			// The first call of each pair may allocate an engine; the
			// second reuses the one the first released.
			a, err := s.SampleReferences(p, 2, 300, rand.New(rand.NewPCG(92, uint64(i))))
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.SampleReferences(p, 2, 300, rand.New(rand.NewPCG(92, uint64(i))))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("batch %d: a reused engine changed the sample", batch)
			}
			if n := int64(len(p.EventNodes())); a.Stats.BFSCount > n {
				t.Fatalf("batch %d: %d traversals for %d event nodes", batch, a.Stats.BFSCount, n)
			}
			if a.Stats.Draws <= a.Stats.BFSCount {
				t.Fatalf("batch %d: %d draws for %d traversals; the memo should serve repeats", batch, a.Stats.Draws, a.Stats.BFSCount)
			}
		}
	}
}

// TestVicinityMemo checks the memo against fresh traversals: every
// vicinity comes back in Collect's order, each event node is traversed
// once while the arena has room, and the arena never outgrows its cap.
func TestVicinityMemo(t *testing.T) {
	p, _ := erProblem(t, 400, 1200, 20, 20, 93)
	nodes := p.EventNodes()
	fresh := graph.NewBFS(p.G)
	for _, limit := range []int{0, 37, 400, 1 << 20} {
		t.Run(fmt.Sprint(limit), func(t *testing.T) {
			memo := newVicinityMemo(graph.NewBFS(p.G), nodes, 2, &limit)
			defer memo.release()
			rng := rand.New(rand.NewPCG(94, uint64(limit)))
			for draw := 0; draw < 200; draw++ {
				i := rng.IntN(len(nodes))
				want := slices.Clone(fresh.Collect([]graph.NodeID{nodes[i]}, 2))
				if got := memo.vicinity(i); !slices.Equal(got, want) {
					t.Fatalf("draw %d: vicinity of node %d differs from a fresh traversal", draw, nodes[i])
				}
				if len(memo.arena) > limit {
					t.Fatalf("arena holds %d IDs, cap %d", len(memo.arena), limit)
				}
			}
			if limit >= 1<<20 && memo.traversals > int64(len(nodes)) {
				t.Fatalf("%d traversals for %d event nodes with an uncapped arena", memo.traversals, len(nodes))
			}
			if limit == 0 && memo.traversals != 200 {
				t.Fatalf("%d traversals for 200 draws with the memo off", memo.traversals)
			}
		})
	}
}
