// Package screen runs TESC over many event pairs at once — the workflow
// behind the paper's case studies (§5.4), where the reported keyword and
// alert pairs are the top findings of a sweep over an attributed graph's
// event vocabulary.
//
// Screening adds two concerns the single-pair test does not have:
// multiple-testing control (hundreds of null pairs at α = 0.05 yield
// dozens of spurious hits; p-values are corrected with
// Benjamini–Hochberg FDR by default) and throughput (pairs are tested
// concurrently by a worker pool, each worker owning private BFS
// machinery).
package screen

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// ErrStaleEpoch reports that the snapshot a sweep was pinned to was
// superseded while the sweep ran: Config.CurrentEpoch no longer
// returns Config.Epoch. The partially computed sweep is discarded —
// some pairs would have been tested against the old version and some
// against states derived after the mutation, a mixed view no caller
// should ever see silently. Callers re-bind a fresh snapshot and rerun
// (the monitor scheduler's drain loop does exactly that).
var ErrStaleEpoch = errors.New("screen: bound snapshot epoch advanced mid-sweep")

// Correction selects the multiple-testing adjustment.
type Correction int

const (
	// FDR applies Benjamini–Hochberg false-discovery-rate control
	// (default).
	FDR Correction = iota
	// FWER applies the Bonferroni family-wise correction.
	FWER
	// None uses raw p-values (single-pair semantics).
	None
)

// Config parameterizes a screening run.
type Config struct {
	// H is the vicinity level.
	H int
	// SampleSize is the per-test reference sample size (default 900).
	SampleSize int
	// Alpha is the significance level applied to adjusted p-values
	// (default 0.05).
	Alpha float64
	// Alternative selects the tested direction for every pair.
	Alternative stats.Alternative
	// MinOccurrences skips events with fewer occurrences (default 1).
	MinOccurrences int
	// Correction selects the p-value adjustment (default FDR).
	Correction Correction
	// Workers bounds test concurrency; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the per-pair reference sampling deterministically.
	Seed uint64
	// Progress, when non-nil, is called after each pair finishes with
	// the number of completed pairs and the total. It is invoked
	// exactly len(pairs) times, once with each done value 1..len(pairs),
	// with no lock held: calls from different workers may overlap and
	// arrive out of order, so a consumer maintaining a gauge should
	// fold with max (the tescd job tracker does). Keeping the callback
	// lock-free keeps workers off each other's critical path on large
	// pair sets.
	Progress func(done, total int)
	// NoMemo disables the cross-pair density memo, forcing every pair
	// to evaluate densities with its own fresh traversals — the
	// retained reference path. Reports are bit-identical either way
	// (the differential tests pin this); the only observable difference
	// is BFSRuns/MemoHits. The memo also disables itself when the dense
	// node × event arrays would exceed the memory budget.
	NoMemo bool
	// Memo, when non-nil (and NoMemo unset), replaces the per-run
	// density memo with a caller-owned SharedMemo that persists across
	// runs: entries published by earlier sweeps are served instead of
	// re-traversed, provided the caller honored the invalidation
	// contract (see SharedMemo). Every event named by the pair list
	// must be in the memo's vocabulary and the memo's node universe
	// must match g. Result.MemoHits counts only this run's hits.
	Memo *SharedMemo
	// Epoch and CurrentEpoch, when CurrentEpoch is non-nil, pin the
	// sweep to one snapshot version: Run re-validates before testing
	// each pair and once more after the last pair, and fails with
	// ErrStaleEpoch as soon as CurrentEpoch() != Epoch — a mutation
	// landed mid-sweep and the caller's (graph, store, memo) view can
	// no longer be assumed internally consistent. Leave CurrentEpoch
	// nil when g and store are immutable for the sweep's lifetime.
	Epoch        uint64
	CurrentEpoch func() uint64
	// Ctx, when non-nil, lets the caller abandon the sweep: workers
	// check it before each pair (like the stale-epoch check) and the
	// in-flight pair's density phase checks it between traversal
	// chunks. A canceled Run discards its partial results and returns
	// an error wrapping the context's cause; Plan instead returns the
	// bar's partial ranking alongside the error (the planner API
	// already models partial results). Nil means run to completion.
	Ctx context.Context
}

// canceled reports the sweep-cancellation error when cfg.Ctx is done,
// else nil. The context's cause is wrapped, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) work on the returned error.
func (cfg Config) canceled() error {
	if cfg.Ctx == nil {
		return nil
	}
	select {
	case <-cfg.Ctx.Done():
		return fmt.Errorf("screen: sweep canceled: %w", context.Cause(cfg.Ctx))
	default:
		return nil
	}
}

// PairResult is one screened pair. Results are ordered by adjusted
// p-value, then |Z| descending.
type PairResult struct {
	A, B        string
	OccA, OccB  int
	Tau         float64
	Z           float64
	P           float64 // raw p-value
	AdjP        float64 // corrected p-value
	Significant bool    // AdjP < Alpha
	Skipped     string  // non-empty when the pair could not be tested
}

// Result is a completed screening run.
type Result struct {
	Pairs    []PairResult
	Tested   int // pairs actually tested
	Skipped  int // pairs skipped (degenerate reference populations, ...)
	Rejected int // significant pairs after correction

	// BFSRuns counts the density-phase h-hop traversals actually
	// performed; MemoHits the density evaluations served from the
	// cross-pair memo instead. Without the memo BFSRuns is the sum of
	// every pair's sample size and MemoHits is 0; with it, each
	// distinct reference node across the whole sweep is traversed once.
	BFSRuns  int64
	MemoHits int64
}

// AllPairs builds the candidate list: every unordered pair of store
// events with at least minOcc occurrences each, in lexicographic
// order. The order is sorted explicitly rather than inherited from
// the store: a deterministic candidate list is load-bearing for the
// planner's priority queue (ties order by position) and for
// reproducible sweeps generally, and must not silently depend on a
// provider's iteration order.
func AllPairs(store *events.Store, minOcc int) [][2]string {
	var names []string
	for _, name := range store.Names() {
		if store.Count(name) >= minOcc {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var pairs [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			pairs = append(pairs, [2]string{names[i], names[j]})
		}
	}
	return pairs
}

// Run screens the given pairs on g using occurrences from store.
func Run(g *graph.Graph, store *events.Store, pairs [][2]string, cfg Config) (Result, error) {
	if cfg.H < 1 {
		return Result{}, fmt.Errorf("screen: H must be >= 1")
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 900
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.MinOccurrences < 1 {
		cfg.MinOccurrences = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}

	stale := func() bool { return cfg.CurrentEpoch != nil && cfg.CurrentEpoch() != cfg.Epoch }
	if stale() {
		return Result{}, ErrStaleEpoch
	}
	if err := cfg.canceled(); err != nil {
		return Result{}, err
	}

	memo, mem, eventIdx, err := bindSweepMemo(g, store, pairs, cfg)
	if err != nil {
		return Result{}, err
	}
	var hitsBefore int64
	if memo != nil {
		hitsBefore = memo.memoHits.Load()
	}

	results := make([]PairResult, len(pairs))
	var wg sync.WaitGroup
	// The completed counter is atomic and Progress runs outside any
	// lock: serializing the callback under a mutex stalled every other
	// worker for the duration of each call on large pair sets. Work is
	// handed out by a second atomic counter — one fetch-add per pair —
	// instead of a feeder goroutine pushing indexes down a channel.
	var completed, nextPair atomic.Int64
	var bfsRuns atomic.Int64
	var staleStop, cancelStop atomic.Bool
	worker := func() {
		sampler := &core.BatchBFSSampler{}
		var src *memoSource
		if memo != nil {
			bfs := g.AcquireBFS()
			defer g.ReleaseBFS(bfs)
			multi, err := core.NewMultiEvaluator(g, mem, cfg.H, bfs)
			if err == nil {
				src = &memoSource{memo: memo, multi: multi, shared: cfg.Memo}
			}
		}
		var localBFS int64
		for {
			i := int(nextPair.Add(1)) - 1
			if i >= len(pairs) {
				break
			}
			// Re-validate the pinned epoch before spending BFS work
			// on this pair; a stale sweep is discarded whole. A
			// canceled sweep stops the same way: the caller is gone,
			// so every further traversal is wasted work.
			if stale() {
				staleStop.Store(true)
				break
			}
			if cfg.canceled() != nil {
				cancelStop.Store(true)
				break
			}
			var pairBFS int64
			if src != nil {
				src.retarget(eventIdx[pairs[i][0]], eventIdx[pairs[i][1]])
				results[i], pairBFS = screenOne(g, store, pairs[i], cfg, sampler, src)
			} else {
				results[i], pairBFS = screenOne(g, store, pairs[i], cfg, sampler, nil)
			}
			localBFS += pairBFS
			if cfg.Progress != nil {
				cfg.Progress(int(completed.Add(1)), len(pairs))
			}
		}
		bfsRuns.Add(localBFS)
	}
	if workers == 1 {
		// A single-worker sweep (every standing-query re-screen is one)
		// runs inline: no goroutine spawn, no scheduler handoff, and
		// the caller's warm stack.
		worker()
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	// The closing re-validation: a delta that landed after the last
	// per-pair check still invalidates the sweep — some pairs may have
	// sampled reference nodes from the superseded snapshot's view.
	if staleStop.Load() || stale() {
		return Result{}, ErrStaleEpoch
	}
	// Same for cancellation: a cancel landing during the last pair sets
	// no flag (no worker re-enters the loop), but that pair's test may
	// have aborted mid-density-phase — re-check so it cannot escape as
	// a mislabeled skip.
	if cancelStop.Load() || cfg.canceled() != nil {
		return Result{}, cfg.canceled()
	}

	// correction over the tested pairs only
	var tested []int
	var ps []float64
	for i := range results {
		if results[i].Skipped == "" {
			tested = append(tested, i)
			ps = append(ps, results[i].P)
		}
	}
	var adj []float64
	switch cfg.Correction {
	case FWER:
		adj = stats.Bonferroni(ps)
	case None:
		adj = ps
	default:
		adj = stats.BenjaminiHochberg(ps)
	}
	out := Result{Pairs: results, Tested: len(tested), Skipped: len(results) - len(tested), BFSRuns: bfsRuns.Load()}
	if memo != nil {
		// Report this run's hits only: a SharedMemo's counter spans its
		// whole lifetime across many runs.
		out.MemoHits = memo.memoHits.Load() - hitsBefore
	}
	for k, i := range tested {
		results[i].AdjP = adj[k]
		results[i].Significant = adj[k] < cfg.Alpha
		if results[i].Significant {
			out.Rejected++
		}
	}

	sort.SliceStable(out.Pairs, func(a, b int) bool {
		pa, pb := out.Pairs[a], out.Pairs[b]
		if (pa.Skipped == "") != (pb.Skipped == "") {
			return pa.Skipped == ""
		}
		if pa.AdjP != pb.AdjP {
			return pa.AdjP < pb.AdjP
		}
		za, zb := abs(pa.Z), abs(pb.Z)
		if za != zb {
			return za > zb
		}
		if pa.A != pb.A {
			return pa.A < pb.A
		}
		return pa.B < pb.B
	})
	return out, nil
}

// bindSweepMemo sets up a sweep's cross-pair density memo. The memo
// needs the event vocabulary as an indexed set: the distinct event
// names of the pair list (sorted for determinism) and their occurrence
// sets. A caller-owned SharedMemo supplies its own (fixed) vocabulary
// instead, so its cached count vectors keep their layout across runs;
// NoMemo (or a budget miss) returns all-nil and the sweep evaluates
// densities per pair. Shared by Run and Plan.
func bindSweepMemo(g *graph.Graph, store *events.Store, pairs [][2]string, cfg Config) (*densityMemo, *core.EventMembership, map[string]int, error) {
	var memo *densityMemo
	var mem *core.EventMembership
	eventIdx := make(map[string]int)
	switch {
	case cfg.NoMemo:
	case cfg.Memo != nil:
		m, err := cfg.Memo.bind(g.NumNodes(), store, pairs, eventIdx)
		if err != nil {
			return nil, nil, nil, err
		}
		mem = m
		memo = cfg.Memo.memo
	default:
		var names []string
		for _, p := range pairs {
			for _, name := range []string{p[0], p[1]} {
				if _, ok := eventIdx[name]; !ok {
					eventIdx[name] = -1 // mark; index assigned after sort
					names = append(names, name)
				}
			}
		}
		sort.Strings(names)
		sets := make([]*graph.NodeSet, len(names))
		for k, name := range names {
			eventIdx[name] = k
			sets[k] = store.Set(name)
		}
		if m, err := core.NewEventMembership(g.NumNodes(), sets); err == nil {
			mem = m
			memo = newDensityMemo(g.NumNodes(), len(names))
		}
	}
	return memo, mem, eventIdx, nil
}

// screenOne tests a single pair, returning the result and the pair's
// density-phase traversal count (folded into Result.BFSRuns; kept out
// of PairResult so the report stays a pure function of the
// statistics — with the memo, which pair pays for a shared node's
// traversal depends on scheduling). densities, when non-nil, is the
// worker's memo-backed density source, already retargeted at this
// pair's event indices; nil evaluates densities with the pair's own
// traversals (the reference path).
func screenOne(g *graph.Graph, store *events.Store, pair [2]string, cfg Config, sampler core.Sampler, densities core.DensitySource) (PairResult, int64) {
	res := PairResult{
		A: pair[0], B: pair[1],
		OccA: store.Count(pair[0]), OccB: store.Count(pair[1]),
	}
	if res.OccA < cfg.MinOccurrences || res.OccB < cfg.MinOccurrences {
		res.Skipped = "below occurrence threshold"
		return res, 0
	}
	var p *core.Problem
	var err error
	if ms, ok := densities.(*memoSource); ok && ms.shared != nil {
		// Standing queries re-test the same pair across snapshots; the
		// shared memo caches the pair's Va∪b so only real occurrence
		// changes rebuild it.
		p, err = ms.shared.problemFor(g, store, pair)
	} else {
		p, err = core.NewProblem(g, store.Set(pair[0]), store.Set(pair[1]))
	}
	if err != nil {
		res.Skipped = err.Error()
		return res, 0
	}
	seed := pairSeed(cfg.Seed, pair[0], pair[1])
	opts := core.Options{
		H:           cfg.H,
		SampleSize:  cfg.SampleSize,
		Sampler:     sampler,
		Alternative: cfg.Alternative,
		Alpha:       cfg.Alpha,
		Rand:        rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		Ctx:         cfg.Ctx,
	}
	if densities != nil {
		opts.Densities = densities
	}
	tr, err := core.Test(p, opts)
	if err != nil {
		// A canceled test is not a skipped pair: the whole sweep is
		// being abandoned, and Skipped would mislabel the pair if the
		// partial result ever escaped. The worker loop's cancel check
		// discards the sweep right after.
		res.Skipped = err.Error()
		return res, 0
	}
	res.Tau, res.Z, res.P = tr.Tau, tr.Z, tr.P
	return res, tr.DensityBFS
}

func pairSeed(seed uint64, a, b string) uint64 {
	h := seed ^ 14695981039346656037
	for _, s := range []string{a, "\x00", b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
