package bench

import (
	"fmt"
	"math/rand/v2"

	"tesc/internal/graph"
)

// RunDatasets renders the surrogate-dataset characterization table: the
// structural profile of each generated graph next to the figures the
// paper reports (or implies) for the real datasets, backing the
// substitution arguments of the internal/graphgen package documentation.
func RunDatasets(cfg Config) (Table, error) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xd5))
	t := Table{
		ID:    "datasets",
		Title: "surrogate datasets vs the paper's (real graphs unavailable; see internal/graphgen)",
		Header: []string{
			"dataset", "nodes", "edges", "avg-deg", "max-deg", "cc", "diam≈", "paper",
		},
	}
	add := func(name string, g *graph.Graph, paper string) {
		s := graph.ComputeStats(g)
		cc := graph.AvgClusteringCoefficient(g, 2000, rng)
		diam := graph.EstimateDiameter(g, 2, rng)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(s.Nodes),
			fmt.Sprint(s.Edges),
			fmt.Sprintf("%.2f", s.AvgDegree),
			fmt.Sprint(s.MaxDegree),
			fmt.Sprintf("%.2f", cc),
			fmt.Sprint(diam),
			paper,
		})
	}
	add("dblp-surrogate", cfg.DBLP(), "964,677 n / 3,547,014 m / deg 7.35 / cc≈0.6")
	add("intrusion-surrogate", cfg.Intrusion(), "200,858 n / 703,020 m / hub deg≈50k")
	add("twitter-rmat", cfg.Twitter(), "20M n / 0.16B m (raw crawl skew)")
	add("twitter-mutual", cfg.TwitterMutual(), "bidirectional subgraph, deg 16")
	return t, nil
}
