package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tesc"
	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/graphio"
	"tesc/internal/screen"
	"tesc/internal/snapshot"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
	"tesc/internal/wal"
)

// Shares of --seconds the traced run spends per part.
const (
	traceCorrelateFrac = 0.15 // outside-in correlate pipeline vs library vs HTTP
	traceScreenFrac    = 0.20 // direct screen.Run/Plan vs served jobs
	traceTrafficFrac   = 0.65 // the workload's own traffic, with spans
	traceMutations     = 60   // flip batches through graph, vicinity and wal
	traceRepeats       = 3    // parse, build and snapshot-save repetitions
)

// pipelineOut is one reconstructed correlate: the answer and its work.
type pipelineOut struct {
	tau, z, p              float64
	samplerBFS, densityBFS int64
	visited                int64 // nodes the density BFS visited
	density                time.Duration
}

// pipeline rebuilds tesc.Correlation's importance-sampled path from the
// layers' public calls, with a span around each: core.NewProblem →
// ImportanceSampler.SampleReferences → DensityEvaluator.EvalAll → the
// weighted τ with its tie-corrected null (stats). The RNG is set up
// exactly as tesc.Correlation does, so the answer must be bit-identical.
func pipeline(tr *tracer, w *world, idx *vicinity.Index, pair int, seed uint64) (pipelineOut, error) {
	var out pipelineOut
	root := tr.begin("core.test", 0)
	defer tr.end(root)

	sp := tr.begin("core.problem", root)
	n := w.g.NumNodes()
	p, err := core.NewProblem(w.g.Internal(), nodeSet(n, w.pairs[pair][0]), nodeSet(n, w.pairs[pair][1]))
	tr.end(sp)
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))

	sp = tr.begin("core.sample", root)
	sample, err := (&core.ImportanceSampler{Index: idx}).SampleReferences(p, hops, 900, rng)
	tr.end(sp)
	if err != nil {
		return out, err
	}
	out.samplerBFS = sample.Stats.BFSCount

	sp = tr.begin("core.density", root)
	start := time.Now()
	ev := core.NewDensityEvaluator(p, hops)
	sa, sb, ds := ev.EvalAll(sample.Nodes)
	out.density = time.Since(start)
	tr.end(sp)
	out.densityBFS = ev.BFSCount

	sp = tr.begin("stats.kendall", root)
	omega := make([]float64, len(ds))
	for i, d := range ds {
		out.visited += int64(d.VicinitySize)
		omega[i] = float64(sample.Freq[i]) / float64(d.CountUnion)
	}
	out.tau = stats.WeightedTau(sa, sb, omega).Tau
	if varNum := stats.NumeratorVariance(len(sa), stats.TieSizes(sa), stats.TieSizes(sb)); varNum > 0 {
		n0 := float64(len(sa)) * float64(len(sa)-1) / 2
		out.z = stats.ZFromNumerator(out.tau*n0, varNum)
	}
	out.p = stats.PValueZ(out.z, stats.Greater)
	tr.end(sp)
	return out, nil
}

func nodeSet(n int, nodes []int) *graph.NodeSet {
	ids := make([]graph.NodeID, len(nodes))
	for i, v := range nodes {
		ids[i] = graph.NodeID(v)
	}
	return graph.NewNodeSet(n, ids)
}

// timed runs fn inside a root span.
func (t *tracer) timed(name string, fn func() error) error {
	sp := t.begin(name, 0)
	defer t.end(sp)
	return fn()
}

// runTraced is the per-layer breakdown of one workload: each layer's
// public functions timed from the benchmark's own code on the same
// inputs the server gets, the workload's traffic with spans around every
// client call, and /healthz counter deltas over that traffic.
func runTraced(ctx context.Context, cfg config, w *world, env map[string]any) (result, error) {
	tr := newTracer()
	m := map[string]metric{}
	ms := func(name string, v float64) { m[name] = metric{v, "ms"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	// graphio and vicinity: the set-up layers.
	for i := 0; i < traceRepeats; i++ {
		if err := tr.timed("graphio.parse", func() error {
			_, err := graphio.ReadEdgeList(strings.NewReader(w.edges))
			return err
		}); err != nil {
			return result{}, err
		}
	}
	var vidx *vicinity.Index
	for i := 0; i < traceRepeats; i++ {
		if err := tr.timed("vicinity.build", func() (err error) {
			vidx, err = vicinity.Build(w.g.Internal(), hops, vicinity.Options{})
			return err
		}); err != nil {
			return result{}, err
		}
	}
	idx := tesc.VicinityIndexFromInternal(vidx)

	h, _, err := bootServer(ctx, cfg, w)
	if err != nil {
		return result{}, err
	}
	defer h.close()
	info, err := h.cl.GetGraph(ctx, benchGraph)
	if err != nil {
		return result{}, err
	}
	r := newRunner(ctx, h, w, tr)

	if err := r.traceCorrelate(m, idx, time.Duration(traceCorrelateFrac*cfg.seconds*float64(time.Second))); err != nil {
		return result{}, err
	}
	if err := r.traceScreen(m, time.Duration(traceScreenFrac*cfg.seconds*float64(time.Second))); err != nil {
		return result{}, err
	}

	// The workload's own traffic; its counters come from /healthz.
	before, err := h.cl.Health(ctx)
	if err != nil {
		return result{}, err
	}
	_, _ = r.drive(cfg.workload, traceTrafficFrac*cfg.seconds)
	after, err := h.cl.Health(ctx)
	if err != nil {
		return result{}, err
	}
	if err := r.check(info.Epoch); err != nil {
		return result{}, err
	}
	count("server.index_builds", float64(after.IndexBuilt-before.IndexBuilt))
	count("server.index_refreshes", float64(after.IndexRefreshed-before.IndexRefreshed))
	count("server.coalesce_hits", float64(after.SLO.CoalesceHits-before.SLO.CoalesceHits))
	count("server.bfs_runs", float64(after.BFSRuns-before.BFSRuns))
	count("server.memo_hits", float64(after.DensityMemoHits-before.DensityMemoHits))
	count("server.pairs_pruned", float64(after.ScreenPairsPruned-before.ScreenPairsPruned))
	count("vicinity.nodes_recomputed", float64(after.IndexNodesRecomputed-before.IndexNodesRecomputed))
	count("wal.appends", float64(after.WALAppends-before.WALAppends))
	count("wal.fsyncs", float64(after.WALFsyncs-before.WALFsyncs))
	count("snapshot.saves", float64(after.SnapshotSaved-before.SnapshotSaved))

	if err := r.traceMutations(cfg.outDir, idx); err != nil {
		return result{}, err
	}

	self := tr.selfTimes()
	for _, name := range []string{"graphio.parse", "vicinity.build", "vicinity.repair", "graph.apply",
		"wal.append", "snapshot.save", "core.problem", "core.sample", "core.density", "stats.kendall"} {
		ms(name+"_ms", medianMS(self[name]))
	}
	ms("screen.sweep_ms", medianMS(self["screen.run"]))
	ms("screen.plan_ms", medianMS(self["screen.plan"]))
	m["trace.coverage_frac"] = metric{tr.coverage("core.test"), "fraction"}

	path, err := tr.write(cfg.outDir, env)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# spans: %s\n", path)
	res := r.outcome()
	res.Metrics = m
	return res, nil
}

// traceCorrelate interleaves, per request: tesc.Correlation (untraced),
// the traced pipeline, and the same query over HTTP. All three answers
// must agree bit for bit.
func (r *runner) traceCorrelate(m map[string]metric, idx *tesc.VicinityIndex, d time.Duration) error {
	var lib, traced, served []time.Duration
	var samplerBFS, densityBFS, visited, nsPerVisited []float64
	for i, until := 0, time.Now().Add(d); time.Now().Before(until); i++ {
		pair, seed := i%plantedPairs, r.nextSeed()
		var want tesc.Result
		var got pipelineOut
		var libErr, err error
		// Alternate which of the two runs first: the second finds the
		// same vicinities in cache.
		for k := 0; k < 2; k++ {
			start := time.Now()
			if (i+k)%2 == 0 {
				want, libErr = r.w.correlateOracle(r.w.g, idx, pair, seed)
				lib = append(lib, time.Since(start))
			} else {
				got, err = pipeline(r.tr, r.w, idx.Internal(), pair, seed)
				traced = append(traced, time.Since(start))
			}
		}
		if err == nil {
			err = libErr
		}
		if err != nil {
			return fmt.Errorf("pair %d seed %d: %w", pair, seed, err)
		}
		if got.tau != want.Tau || got.z != want.Z || got.p != want.P {
			// The layer timings would describe another program.
			r.corr.fail(fmt.Errorf("pair %d seed %d: rebuilt pipeline (τ=%v z=%v p=%v) differs from tesc.Correlation (τ=%v z=%v p=%v)",
				pair, seed, got.tau, got.z, got.p, want.Tau, want.Z, want.P))
		}
		samplerBFS = append(samplerBFS, float64(got.samplerBFS))
		densityBFS = append(densityBFS, float64(got.densityBFS))
		visited = append(visited, float64(got.visited))
		nsPerVisited = append(nsPerVisited, float64(got.density.Nanoseconds())/float64(got.visited))

		sp := r.tr.begin("client.correlate", 0)
		start := time.Now()
		resp, err := r.h.cl.Correlate(r.ctx, benchGraph, correlateRequest(pair, seed))
		lat := time.Since(start)
		served = append(served, lat)
		r.tr.end(sp)
		if err == nil {
			err = sameAnswer(resp, want)
		}
		r.corr.record(0, lat, err)
	}
	m["server.overhead_ms"] = metric{medianMS(served) - medianMS(lib), "ms"}
	m["core.sampler_bfs"] = metric{median(samplerBFS), "count"}
	m["core.density_bfs"] = metric{median(densityBFS), "count"}
	m["core.visited_nodes"] = metric{median(visited), "count"}
	m["core.ns_per_visited"] = metric{median(nsPerVisited), "ns"}
	m["trace.overhead_frac"] = metric{medianMS(traced)/medianMS(lib) - 1, "fraction"}
	return nil
}

// traceScreen runs, per seed, the direct sweep twice and the served
// sweep once (their BFSRuns spread is the memo's schedule dependence),
// then the direct and served planned top-k.
func (r *runner) traceScreen(m map[string]metric, d time.Duration) error {
	var bfs, memo, evals, ratio, spread, overhead []float64
	var full, early, prior, checkpoints []float64
	for until := time.Now().Add(d); time.Now().Before(until); {
		seed := r.nextSeed()
		var sweeps [2]screen.Result
		var direct time.Duration
		for i := range sweeps {
			start := time.Now()
			err := r.tr.timed("screen.run", func() (err error) {
				sweeps[i], err = r.w.sweepOracle(seed)
				return err
			})
			direct = time.Since(start)
			if err != nil {
				return err
			}
		}
		start := time.Now()
		served, err := r.job("client.sweep", screenRequest(0, seed), &r.sweep)
		if err != nil {
			continue
		}
		overhead = append(overhead, float64((time.Since(start)-direct).Nanoseconds())/1e6)
		if err := sameSweep(served, sweeps[0]); err != nil {
			r.sweep.fail(err)
		}
		runs := []int64{sweeps[0].BFSRuns, sweeps[1].BFSRuns, served.BFSRuns}
		lo, hi := runs[0], runs[0]
		for _, v := range runs {
			lo, hi = min(lo, v), max(hi, v)
		}
		spread = append(spread, float64(hi-lo))
		s := sweeps[0]
		bfs = append(bfs, float64(s.BFSRuns))
		memo = append(memo, float64(s.MemoHits))
		evals = append(evals, float64(s.BFSRuns+s.MemoHits))
		ratio = append(ratio, float64(s.MemoHits)/float64(s.BFSRuns+s.MemoHits))

		var plan screen.PlanResult
		start = time.Now()
		if err := r.tr.timed("screen.plan", func() (err error) {
			plan, err = r.w.planOracle(seed)
			return err
		}); err != nil {
			return err
		}
		direct = time.Since(start)
		start = time.Now()
		top, err := r.job("client.topk", screenRequest(topK, seed), &r.topk)
		if err != nil {
			continue
		}
		overhead = append(overhead, float64((time.Since(start)-direct).Nanoseconds())/1e6)
		if err := topKMatches(served.Pairs, top.Pairs); err != nil {
			r.topk.fail(err)
		}
		st := plan.Stats
		full = append(full, float64(st.FullTests))
		early = append(early, float64(st.PrunedEarly))
		prior = append(prior, float64(st.PrunedPrior))
		checkpoints = append(checkpoints, float64(st.Checkpoints))
	}
	m["server.job_overhead_ms"] = metric{median(overhead), "ms"}
	m["screen.bfs_runs"] = metric{median(bfs), "count"}
	m["screen.memo_hits"] = metric{median(memo), "count"}
	m["screen.bfs_runs_spread"] = metric{maxOf(spread), "count"}
	m["screen.density_evals"] = metric{median(evals), "count"}
	m["screen.memo_hit_ratio"] = metric{median(ratio), "fraction"}
	m["screen.full_tests"] = metric{median(full), "count"}
	m["screen.pruned_early"] = metric{median(early), "count"}
	m["screen.pruned_prior"] = metric{median(prior), "count"}
	m["screen.checkpoints"] = metric{median(checkpoints), "count"}
	return nil
}

func maxOf(xs []float64) float64 {
	out := 0.0
	for _, x := range xs {
		out = max(out, x)
	}
	return out
}

// traceMutations pushes flip batches through the write path's layers in
// the order the server runs them — graph delta compaction, index
// repair, WAL append with fsync — then checkpoints the result. The
// repaired index must equal a fresh build.
func (r *runner) traceMutations(outDir string, base *tesc.VicinityIndex) error {
	walDir, err := os.MkdirTemp(outDir, fmt.Sprintf("data-%d-wal", os.Getpid()))
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	lg, _, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	cur, idx := r.w.g, base.Clone()
	stream := graphgen.NewFlipStream(cur.Internal(), 0.5, rngFor(r.w.seed, 0xf11c))
	for k := 0; k < traceMutations; k++ {
		var changes []tesc.EdgeChange
		for _, c := range stream.Take(flipsPerBatch) {
			changes = append(changes, tesc.EdgeChange{U: int(c.U), V: int(c.V), Insert: c.Insert})
		}
		var next *tesc.Graph
		var applied []tesc.EdgeChange
		if err := r.tr.timed("graph.apply", func() (err error) {
			next, applied, err = cur.ApplyEdgeChanges(changes)
			return err
		}); err != nil {
			return err
		}
		if err := r.tr.timed("vicinity.repair", func() error {
			_, err := idx.ApplyDelta(next, applied, 0)
			return err
		}); err != nil {
			return err
		}
		rec := &wal.Record{Kind: wal.KindEdges, Graph: benchGraph, Epoch: uint64(k + 2), GraphVersion: uint64(k + 2)}
		for _, c := range applied {
			rec.Changes = append(rec.Changes, wal.EdgeChange{U: c.U, V: c.V, Insert: c.Insert})
		}
		if err := r.tr.timed("wal.append", func() error { return lg.Append(rec) }); err != nil {
			return err
		}
		cur = next
	}
	if err := lg.Close(); err != nil {
		return err
	}
	fresh, err := cur.BuildVicinityIndex(hops, 0)
	if err != nil {
		return err
	}
	for level := 1; level <= hops; level++ {
		a, b := idx.Internal().Sizes(level), fresh.Internal().Sizes(level)
		for v := range a {
			if a[v] != b[v] {
				r.mutate.fail(fmt.Errorf("repaired index: node %d level %d has size %d, fresh build %d", v, level, a[v], b[v]))
				break
			}
		}
	}

	store := events.NewBuilder(cur.NumNodes())
	for name, nodes := range r.w.plantedEvents() {
		for _, v := range nodes {
			store.Add(name, graph.NodeID(v))
		}
	}
	snap := &snapshot.Snapshot{Graph: cur.Internal(), Store: store.Build(),
		Indexes: []*vicinity.Index{idx.Internal()}, Epoch: 1, GraphVersion: 1}
	path := filepath.Join(walDir, "bench.tescsnap")
	for i := 0; i < traceRepeats; i++ {
		if err := r.tr.timed("snapshot.save", func() error {
			_, err := snapshot.SaveFile(path, snap)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
