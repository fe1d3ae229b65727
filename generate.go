package tesc

import (
	"math/rand/v2"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// The generators below expose the repository's synthetic graph models
// through the public API so example programs and downstream users can
// produce realistic test beds without real datasets. Each mirrors one of
// the paper's three evaluation graphs; the internal/graphgen package
// documentation gives the correspondence argument.

// RandomCommunityGraph generates a planted-partition graph: communities
// blocks of size nodes each, with expected intra-community degree
// degreeIn and inter-community degree degreeOut per node. With
// degreeIn+degreeOut ≈ 7.4 it matches the paper's DBLP co-author graph
// profile.
func RandomCommunityGraph(communities, size int, degreeIn, degreeOut float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0xdb19))
	g := graphgen.PlantedPartition(graphgen.PlantedPartitionConfig{
		Communities: communities,
		Size:        size,
		DegreeIn:    degreeIn,
		DegreeOut:   degreeOut,
	}, rng)
	return &Graph{g: g}
}

// RandomPowerLawGraph generates an R-MAT graph with 2^scaleExp nodes and
// about edgeFactor·2^scaleExp edges, with Graph500 skew — the paper's
// Twitter-style scalability substrate.
func RandomPowerLawGraph(scaleExp, edgeFactor int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0x7317))
	cfg := graphgen.DefaultTwitterSurrogate(scaleExp)
	cfg.EdgeFactor = edgeFactor
	return &Graph{g: graphgen.RMAT(cfg, rng)}
}

// RandomHubGraph generates a graph with hubs very-high-degree nodes
// (each wired to hubDegree random others) over a sparse random
// background — the paper's Intrusion-network profile: tiny diameter,
// 2-vicinities covering much of the graph.
func RandomHubGraph(n, hubs, hubDegree int, backgroundDegree float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0x1d05))
	return &Graph{g: graphgen.HubGraph(n, hubs, hubDegree, backgroundDegree, rng)}
}

// RandomCoauthorshipGraph generates a clique-based co-authorship graph
// ("papers" are author cliques inside communities), the closest stand-in
// for the paper's DBLP dataset: community structure, average degree
// ≈7.4 and the high clustering coefficient that makes 1-hop density
// correlations measurable. scale = 1.0 yields ≈100k nodes.
func RandomCoauthorshipGraph(scale float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0xc0a0))
	return &Graph{g: graphgen.Coauthorship(graphgen.DefaultCoauthorship(scale), rng)}
}

// IntrusionLayout describes the subnet structure of a graph produced by
// RandomIntrusionGraph, so callers can plant alerts subnet by subnet.
type IntrusionLayout struct {
	cfg graphgen.IntrusionConfig
}

// NumSubnets returns the number of host subnets.
func (l IntrusionLayout) NumSubnets() int { return l.cfg.NumSubnets() }

// SubnetMembers returns the host node IDs of subnet s.
func (l IntrusionLayout) SubnetMembers(s int) []int {
	ms := l.cfg.SubnetMembers(s)
	out := make([]int, len(ms))
	for i, v := range ms {
		out[i] = int(v)
	}
	return out
}

// Hubs returns the number of router hubs (node IDs 0..Hubs-1).
func (l IntrusionLayout) Hubs() int { return l.cfg.Hubs }

// RandomIntrusionGraph generates the Intrusion-network surrogate: host
// subnets modeled as cliques, each wired to one of a few router hubs
// whose degree is ≈ n/4 — the structure behind the paper's intrusion
// alert case studies (tiny diameter, 2-vicinities covering much of the
// graph).
func RandomIntrusionGraph(n int, seed uint64) (*Graph, IntrusionLayout) {
	rng := rand.New(rand.NewPCG(seed, 0x1d05))
	cfg := graphgen.DefaultIntrusion(n)
	return &Graph{g: graphgen.Intrusion(cfg, rng)}, IntrusionLayout{cfg: cfg}
}

// RandomSmallWorldGraph generates a Watts–Strogatz ring lattice with k
// neighbors per side rewired with probability beta.
func RandomSmallWorldGraph(n, k int, beta float64, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0x5311))
	return &Graph{g: graphgen.WattsStrogatz(n, k, beta, rng)}
}

// CommunityOf returns the community index of node v for graphs produced
// by RandomCommunityGraph with the given block size.
func CommunityOf(v, size int) int { return v / size }

// GraphStats summarizes a graph's structure.
type GraphStats struct {
	Nodes      int
	Edges      int64
	MinDegree  int
	MaxDegree  int
	AvgDegree  float64
	Components int
}

// Stats scans the graph and returns summary statistics.
func (g *Graph) Stats() GraphStats {
	s := graph.ComputeStats(g.g)
	return GraphStats{
		Nodes:      s.Nodes,
		Edges:      s.Edges,
		MinDegree:  s.MinDegree,
		MaxDegree:  s.MaxDegree,
		AvgDegree:  s.AvgDegree,
		Components: s.Components,
	}
}
