package core_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/core"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/simulate"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// importanceBench is the substrate of BenchmarkImportanceTest: the
// ~100k-node coauthorship surrogate at seed 3 (tesc.RandomCoauthorshipGraph(1.0, 3))
// with its level-2 vicinity index, and planted positive pairs drawn
// with simulate.PositivePair as the repository benchmark plants them.
// Built once; only -bench pays.
var importanceBench struct {
	once     sync.Once
	idx      *vicinity.Index
	problems map[string]*core.Problem
}

func importanceBenchSetup(tb testing.TB) {
	importanceBench.once.Do(func() {
		g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1.0), rand.New(rand.NewPCG(3, 0xc0a0)))
		idx, err := vicinity.Build(g, 2, vicinity.Options{Workers: 2})
		if err != nil {
			tb.Fatal(err)
		}
		problems := map[string]*core.Problem{}
		for name, occ := range map[string]int{"planted500": 500, "planted20k": 20000} {
			pair, err := simulate.PositivePair(g, simulate.Config{H: 2, Occurrences: occ}, rand.New(rand.NewPCG(3, 0x9e7f0a11)))
			if err != nil {
				tb.Fatal(err)
			}
			n := g.NumNodes()
			problems[name] = core.MustNewProblem(g, graph.NewNodeSet(n, pair.Va), graph.NewNodeSet(n, pair.Vb))
		}
		importanceBench.idx, importanceBench.problems = idx, problems
	})
}

// BenchmarkImportanceTest times one importance-sampled TESC test at
// h=2, n=900 — sampling, densities and the weighted τ — and reports the
// traversals each phase runs. On planted500 (|Va∪b| = 791) the
// densities come from the event-centric pass, so sampler_bfs +
// density_bfs is |Va∪b|; on planted20k (|Va∪b| = 27,181) the plan rule
// keeps one BFS per reference node (density_bfs = 900).
func BenchmarkImportanceTest(b *testing.B) {
	importanceBenchSetup(b)
	for _, name := range []string{"planted500", "planted20k"} {
		b.Run(name, func(b *testing.B) {
			p := importanceBench.problems[name]
			opts := core.DefaultOptions(2)
			opts.Sampler = &core.ImportanceSampler{Index: importanceBench.idx}
			opts.Alternative = stats.Greater
			var samplerBFS, densityBFS int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed := uint64(i)
				opts.Rand = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
				res, err := core.Test(p, opts)
				if err != nil {
					b.Fatal(err)
				}
				samplerBFS += res.SamplerStats.BFSCount
				densityBFS += res.DensityBFS
			}
			b.ReportMetric(float64(samplerBFS)/float64(b.N), "sampler_bfs/op")
			b.ReportMetric(float64(densityBFS)/float64(b.N), "density_bfs/op")
		})
	}
}
