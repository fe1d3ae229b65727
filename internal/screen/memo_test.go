package screen

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// memoFixture builds a seeded graph and a K-event store whose h-hop
// reference populations overlap heavily, so the cross-pair memo gets
// real hits.
func memoFixture(t *testing.T, directed bool, k, occ int, seed uint64) (*graph.Graph, *events.Store) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x51))
	const n = 600
	var b *graph.Builder
	if directed {
		b = graph.NewDirectedBuilder(n)
	} else {
		b = graph.NewBuilder(n)
	}
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eb := events.NewBuilder(n)
	for e := 0; e < k; e++ {
		for i := 0; i < occ; i++ {
			eb.Add(fmt.Sprintf("ev-%d", e), graph.NodeID(rng.IntN(n)))
		}
	}
	return g, eb.Build()
}

// samePairs compares the exported statistics of two screening reports
// with exact float equality — the memo must be bit-invisible.
func samePairs(t *testing.T, memo, ref Result) {
	t.Helper()
	if len(memo.Pairs) != len(ref.Pairs) {
		t.Fatalf("pair counts differ: %d vs %d", len(memo.Pairs), len(ref.Pairs))
	}
	if memo.Tested != ref.Tested || memo.Skipped != ref.Skipped || memo.Rejected != ref.Rejected {
		t.Fatalf("summary differs: %+v vs %+v", memo, ref)
	}
	for i := range memo.Pairs {
		m, r := memo.Pairs[i], ref.Pairs[i]
		if m.A != r.A || m.B != r.B || m.OccA != r.OccA || m.OccB != r.OccB ||
			m.Tau != r.Tau || m.Z != r.Z || m.P != r.P || m.AdjP != r.AdjP ||
			m.Significant != r.Significant || m.Skipped != r.Skipped {
			t.Fatalf("pair %d differs:\nmemo %+v\nref  %+v", i, m, r)
		}
	}
}

// TestMemoBitIdentical is the sweep-level differential test: screening
// with the cross-pair density memo produces reports bit-identical to
// the retained per-pair reference path, over directed and undirected
// graphs at h = 1..3, while actually deduplicating traversals.
func TestMemoBitIdentical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for h := 1; h <= 3; h++ {
			t.Run(fmt.Sprintf("directed=%v/h=%d", directed, h), func(t *testing.T) {
				g, store := memoFixture(t, directed, 5, 25, uint64(h)*17+1)
				cfg := Config{H: h, SampleSize: 200, Seed: 42, Workers: 4}
				pairs := AllPairs(store, 1)

				memoRes, err := Run(g, store, pairs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refCfg := cfg
				refCfg.NoMemo = true
				refRes, err := Run(g, store, pairs, refCfg)
				if err != nil {
					t.Fatal(err)
				}

				samePairs(t, memoRes, refRes)
				if refRes.MemoHits != 0 {
					t.Fatalf("reference path reported %d memo hits", refRes.MemoHits)
				}
				if memoRes.MemoHits == 0 {
					t.Fatal("memo path reported zero hits on an overlapping workload")
				}
				if memoRes.BFSRuns >= refRes.BFSRuns {
					t.Fatalf("memo did not reduce traversals: %d vs %d", memoRes.BFSRuns, refRes.BFSRuns)
				}
				if memoRes.BFSRuns+memoRes.MemoHits < refRes.BFSRuns {
					t.Fatalf("runs+hits %d < reference evaluations %d: evaluations lost",
						memoRes.BFSRuns+memoRes.MemoHits, refRes.BFSRuns)
				}
			})
		}
	}
}

// inheritEngines returns a graph equal to g that holds g's idle BFS
// engines, inherited (and rebound twice) through Delta.Compact: an
// absent edge is inserted, then deleted again.
func inheritEngines(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	v := graph.NodeID(1)
	for g.HasEdge(0, v) {
		v++
	}
	d := graph.NewDelta(g)
	if _, err := d.InsertEdge(0, v); err != nil {
		t.Fatal(err)
	}
	pullEngines(d.Compact())
	if _, err := d.DeleteEdge(0, v); err != nil {
		t.Fatal(err)
	}
	g2 := d.Compact()
	pullEngines(g2)
	return g2
}

// pullEngines makes g inherit its predecessor's idle engines now: a
// successor takes them only as it is queried. Inherited engines come
// out first and go back last, so they are the next ones handed out.
func pullEngines(g *graph.Graph) {
	held := make([]*graph.BFS, 2*runtime.GOMAXPROCS(0))
	for i := range held {
		held[i] = g.AcquireBFS()
	}
	for i := len(held) - 1; i >= 0; i-- {
		g.ReleaseBFS(held[i])
	}
}

// TestMemoWithEnginePool pins that a sweep on engines inherited from a
// predecessor snapshot reports exactly what a sweep on fresh engines
// does, counters included.
func TestMemoWithEnginePool(t *testing.T) {
	g, store := memoFixture(t, false, 4, 30, 7)
	pairs := AllPairs(store, 1)
	cfg := Config{H: 2, SampleSize: 150, Seed: 9, Workers: 3}
	fresh, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inherited, err := Run(inheritEngines(t, g), store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, inherited) {
		t.Fatalf("inherited engines changed the report:\nfresh     %+v\ninherited %+v", fresh, inherited)
	}
}

// TestRunWorkersIdentical pins that the worker count is invisible in a
// sweep's Result, work counters included: a worker that loses a memo
// claim waits for the winner instead of traversing again, so BFSRuns is
// the number of distinct reference nodes on any schedule.
func TestRunWorkersIdentical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g, store := memoFixture(t, directed, 6, 25, 11)
		pairs := AllPairs(store, 1)
		var want Result
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := Config{H: 2, SampleSize: 200, Seed: 5, Workers: workers}
			got, err := Run(g, store, pairs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("directed=%v workers=%d: Result differs from workers=1\n got BFSRuns=%d MemoHits=%d\nwant BFSRuns=%d MemoHits=%d",
					directed, workers, got.BFSRuns, got.MemoHits, want.BFSRuns, want.MemoHits)
			}
		}
	}
}

// TestScreenSampleRoutesThroughLogLinearKendall audits the satellite
// requirement: every screening test at the default and paper sample
// sizes (>= stats.KendallNaiveCutoff) must route through Knight's
// O(n log n) Kendall, never the quadratic reference kernel.
func TestScreenSampleRoutesThroughLogLinearKendall(t *testing.T) {
	for _, n := range []int{64, 300, 900} {
		if stats.UseNaiveKendall(n) {
			t.Fatalf("sample size %d would use the quadratic Kendall kernel", n)
		}
	}
}
