package server

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestHealthzTraversalCounters is the serving-tier acceptance check of
// the PR 4 hot-path work: correlate queries advance bfs_runs, a
// screening sweep advances it by its deduplicated traversal count, and
// density_memo_hits becomes visible — the operator's live view of the
// memo's effect.
func TestHealthzTraversalCounters(t *testing.T) {
	env := newTestEnv(t)

	var h0 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h0)
	if h0["bfs_runs"].(float64) != 0 || h0["density_memo_hits"].(float64) != 0 {
		t.Fatalf("fresh healthz counters non-zero: %+v", h0)
	}

	var cres correlateResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 60}, &cres)
	if cres.DensityBFS == 0 {
		t.Fatal("correlate reported zero density traversals")
	}
	var h1 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h1)
	if got := int64(h1["bfs_runs"].(float64)); got != cres.DensityBFS {
		t.Fatalf("bfs_runs = %d after one correlate, want %d", got, cres.DensityBFS)
	}

	// A third event forces a real multi-pair sweep; its samples overlap
	// across pairs, so the memo must register hits and the traversal
	// count must come in under pairs × sample size.
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"mid": {80, 81, 82, 83, 84, 85}}}, nil)
	var sres screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 100}, &sres)
	var job JobView
	waitForJob(t, env, sres.JobID, &job)
	if job.Result == nil {
		t.Fatalf("job has no result: %+v", job)
	}
	if job.Result.MemoHits == 0 {
		t.Fatal("screen job reported zero memo hits on overlapping events")
	}
	if job.Result.BFSRuns == 0 || job.Result.BFSRuns >= int64(job.Result.Tested)*100 {
		t.Fatalf("screen BFSRuns = %d, want deduplicated (0 < runs < %d)",
			job.Result.BFSRuns, job.Result.Tested*100)
	}
	var h2 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h2)
	wantRuns := cres.DensityBFS + job.Result.BFSRuns
	if got := int64(h2["bfs_runs"].(float64)); got != wantRuns {
		t.Fatalf("bfs_runs = %d, want %d (correlate + sweep)", got, wantRuns)
	}
	if got := int64(h2["density_memo_hits"].(float64)); got != job.Result.MemoHits {
		t.Fatalf("density_memo_hits = %d, want %d", got, job.Result.MemoHits)
	}
}

// TestEnginePoolPerGraphVersion pins the engine invalidation contract
// across an edge mutation: a snapshot's graph reuses its own engines,
// the mutation publishes a graph whose engines all traverse the new
// version, and an engine a query held over the old snapshot never
// enters the new version's free list.
func TestEnginePoolPerGraphVersion(t *testing.T) {
	env := newTestEnv(t)
	e, ok := env.srv.Registry().Get("g")
	if !ok {
		t.Fatal("graph not registered")
	}
	snap1 := e.Snapshot()
	g1 := snap1.Graph.Internal()
	idle, busy := g1.AcquireBFS(), g1.AcquireBFS()
	g1.ReleaseBFS(idle)
	if g1.AcquireBFS() != idle {
		t.Fatal("same snapshot did not reuse its engine")
	}
	g1.ReleaseBFS(idle)

	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
		map[string]any{"insert": [][2]int{{0, 199}}}, nil)
	snap2 := e.Snapshot()
	if snap2.GraphVersion == snap1.GraphVersion {
		t.Fatal("mutation did not bump the graph version")
	}
	g2 := snap2.Graph.Internal()
	if g2 == g1 {
		t.Fatal("mutation did not publish a new graph")
	}
	if busy.Graph() != g1 {
		t.Fatal("an engine in use was rebound to the new version")
	}
	// The query holding the old snapshot finishes: its engine goes back
	// to the old graph, never to the current one.
	g2.ReleaseBFS(busy)
	g1.ReleaseBFS(busy)
	if stale := g1.AcquireBFS(); stale.Graph() != g1 {
		t.Fatal("stale snapshot was handed an engine of another version")
	}
	for i := 0; i < 2*runtime.GOMAXPROCS(0)+2; i++ {
		cur := g2.AcquireBFS()
		if cur == busy || cur.Graph() != g2 {
			t.Fatal("current snapshot was handed an engine bound to a stale graph")
		}
	}
}

// waitForJob polls the job endpoint until it leaves the running state.
func waitForJob(t *testing.T, env *testEnv, id string, out *JobView) {
	t.Helper()
	for i := 0; i < 500; i++ {
		env.do(t, http.StatusOK, "GET", "/v1/jobs/"+id, nil, out)
		if out.Status != JobRunning {
			if out.Status != JobDone {
				t.Fatalf("job failed: %+v", out)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}
