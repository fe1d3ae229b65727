package screen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// This file is the top-k screening planner: the best-first alternative
// to Run's exhaustive K² sweep for the production questions "which
// pairs correlate most" and "did anything cross θ". The planner orders
// candidate pairs by a cheap co-occurrence prior, evaluates densities
// incrementally over each pair's reference sample, and terminates a
// pair as soon as an upper bound on its final score falls below the
// bar (the k-th best score among the pairs queued at least planLag
// places before it, or θ). Two bounds are
// intersected at every checkpoint:
//
//   - stats.TauCompletionInterval — deterministic: the unevaluated
//     concordance terms are each in {−1,0,+1}, so the final statistic
//     is boxed regardless of what the remaining references contain.
//   - stats.TauPrefixConfidenceInterval — statistical, derived from
//     the §3.1 variance bound (TauVarianceUpperBound); it is what
//     terminates hopeless pairs early, at a per-checkpoint risk of
//     BoundAlpha.
//
// Because a pair is pruned only when its upper bound is STRICTLY below
// the bar, and the bar never exceeds the final k-th best exact score,
// a pruned pair provably cannot belong to the top k (ties at the bar
// always run to completion). Completed pairs draw the exact reference
// sample Run would draw (same pairSeed rng, same BatchBFS sampler) and
// push the same density vectors through the same Kendall kernel, so
// their Tau/Z/P are bit-identical to the exhaustive sweep's — the
// differential battery in planner_diff_test.go pins this equivalence.
// See docs/SCREENING.md for the full argument.

// PlanConfig parameterizes a planned (top-k or threshold) screening
// run. The embedded Config fields keep their Run semantics, with two
// exceptions: Correction is ignored — a pruned sweep never observes
// the whole p-value family, so planned results carry raw p-values
// (AdjP == P) — and Progress reports every candidate pair exactly
// once whether it was tested, pruned, or skipped.
type PlanConfig struct {
	Config

	// K selects top-k mode: return the K best pairs by score. Zero
	// selects threshold mode (see Theta); negative is an error.
	K int
	// Theta is the threshold-mode bar: return every pair whose score
	// reaches Theta. Consulted only when K == 0 (the two modes are
	// exclusive; combining them is an error so a forgotten field can
	// never silently change top-k semantics).
	Theta float64
	// BoundAlpha is the per-checkpoint risk of the statistical pruning
	// bound (default 1e-6). Smaller values prune later but make a
	// bound violation — the only way a planned result can differ from
	// the exhaustive sweep — correspondingly rarer. Negative disables
	// the statistical bound entirely, leaving the deterministic
	// completion bound: pruning then never lies, at the cost of only
	// terminating pairs late in their sample.
	BoundAlpha float64
	// FirstCheckpoint is the first sample prefix at which bounds are
	// evaluated (default 64, the Kendall cutoff); the schedule doubles
	// from there and densifies near the full sample where the
	// deterministic bound sharpens. Must be ≥ 2 when set.
	FirstCheckpoint int
	// Index, when non-nil and built on g at a level ≥ H (undirected
	// graphs only), enables the prior reach bound: an event whose
	// occurrence vicinities cover fewer than the sample's worth of
	// nodes caps |τ| before any sampling, so hopeless pairs are pruned
	// without a single traversal.
	Index *vicinity.Index
	// Stream, when non-nil, is called with the current ranked result
	// set each time a completed pair improves it — top-k results
	// stream out while the sweep runs. Completed pairs are offered in
	// queue order, so one may wait for a slower pair queued before it
	// (a canceled plan offers the waiting ones when it stops). Calls
	// are serialized and the slice is the callback's to keep; keep the
	// callback cheap, it is invoked on the worker path.
	Stream func(top []PairResult)
}

// PlanStats accounts for the planner's work. Candidates is always
// Skipped + PrunedPrior + PrunedEarly + FullTests. Like the ranking,
// every counter is the same for any Workers value (see laggedBar).
type PlanStats struct {
	// Candidates is the number of candidate pairs considered.
	Candidates int
	// FullTests counts pairs whose whole reference sample was
	// evaluated — the pairs an exhaustive sweep would have paid for
	// every candidate.
	FullTests int
	// PrunedEarly counts pairs terminated at a bound checkpoint.
	PrunedEarly int
	// PrunedPrior counts pairs discarded by the prior reach bound
	// before any sampling.
	PrunedPrior int
	// Skipped counts degenerate pairs (below MinOccurrences, empty
	// reference populations, ...) — the same pairs Run marks Skipped.
	Skipped int
	// Checkpoints counts bound evaluations performed.
	Checkpoints int
	// DensityEvals counts reference-node density evaluations paid
	// (from the memo or fresh); an exhaustive sweep pays one per
	// sampled reference of every candidate.
	DensityEvals int64
	// BFSRuns / MemoHits mirror Result's density-phase accounting.
	BFSRuns  int64
	MemoHits int64
}

// PlanResult is a completed planned screen: the ranked result pairs
// (score descending, ties by event names) and the work accounting.
// Skipped and pruned pairs do not appear in Pairs.
type PlanResult struct {
	Pairs []PairResult
	Stats PlanStats
}

// rankScore maps a pair's τ to its ranking score under the tested
// alternative: attraction ranks by τ, repulsion by −τ, two-sided by
// |τ|. Ranking is τ-derived rather than p-derived deliberately: BH/
// Bonferroni adjustment depends on the whole tested family, which a
// pruned sweep never observes, while τ is a pure per-pair statistic.
func rankScore(alt stats.Alternative, tau float64) float64 {
	switch alt {
	case stats.Greater:
		return tau
	case stats.Less:
		return -tau
	default:
		return math.Abs(tau)
	}
}

// rankLess is the planner's total order: score descending, then event
// names — deterministic for any two distinct pairs, which is what
// makes "the top k" well defined under ties at the k-th place.
func rankLess(a, b *PairResult, alt stats.Alternative) bool {
	sa, sb := rankScore(alt, a.Tau), rankScore(alt, b.Tau)
	if sa != sb {
		return sa > sb
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// scoreInterval maps a τ interval to a score interval under the
// alternative's objective.
func scoreInterval(alt stats.Alternative, lo, hi float64) (sLo, sHi float64) {
	switch alt {
	case stats.Greater:
		return lo, hi
	case stats.Less:
		return -hi, -lo
	default:
		sHi = math.Max(math.Abs(lo), math.Abs(hi))
		if lo <= 0 && hi >= 0 {
			sLo = 0
		} else {
			sLo = math.Min(math.Abs(lo), math.Abs(hi))
		}
		return sLo, sHi
	}
}

// checkpointSchedule returns the sorted prefix lengths at which a
// pair's bounds are evaluated: doubling from first (early exits for
// the statistical bound), then eighths of the sample (where the
// deterministic completion bound sharpens: at m = 7n/8 it already
// boxes the final statistic within ±0.23). Always strictly below n —
// the full sample is the test itself, not a checkpoint.
func checkpointSchedule(first, n int) []int {
	if n <= first {
		return nil
	}
	set := make(map[int]bool)
	for m := first; m < n; m *= 2 {
		set[m] = true
	}
	for num := 4; num < 8; num++ {
		if m := n * num / 8; m >= first && m < n {
			set[m] = true
		}
	}
	cps := make([]int, 0, len(set))
	for m := range set {
		cps = append(cps, m)
	}
	sort.Ints(cps)
	return cps
}

// defaultBoundAlpha is the per-checkpoint risk of the statistical
// pruning bound. At 1e-6 the normal quantile is ≈ 4.9, wide enough
// that a violation — the only way a planned result can diverge from
// the exhaustive sweep — needs a ≈ 5σ density fluctuation.
const defaultBoundAlpha = 1e-6

// planLag is how many queue places a pair's bar trails it by: pair i
// is pruned against the bar of the pairs before i − planLag. Workers
// wait only when one pair is still running planLag places behind the
// next free one; a shorter lag lets the bar rise sooner and so prunes
// more.
const planLag = 16

// planBar is the shared pruning bar: in top-k mode the k-th best
// COMPLETED exact score (−Inf until k pairs completed), in threshold
// mode the constant θ. It only ever rises, which is what makes
// strict-inequality pruning sound.
type planBar struct {
	mu     sync.Mutex
	k      int     // 0 = threshold mode
	theta  float64 // threshold-mode bar
	scores []float64
	// completed accumulates every fully tested pair for the final
	// ranking; streaming snapshots are cut from it.
	completed []PairResult
	alt       stats.Alternative
	stream    func([]PairResult)
}

func (b *planBar) bar() float64 {
	if b.k == 0 {
		return b.theta
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.scores) < b.k {
		return math.Inf(-1)
	}
	return b.scores[b.k-1]
}

// offer records a completed pair's exact score and, when it improves
// the visible result set, streams a fresh ranked snapshot.
func (b *planBar) offer(res PairResult) {
	if snapshot := b.record(res); snapshot != nil {
		b.stream(snapshot)
	}
}

// record is offer without the streaming: it returns the snapshot to
// stream, or nil.
func (b *planBar) record(res PairResult) []PairResult {
	score := rankScore(b.alt, res.Tau)
	b.mu.Lock()
	b.completed = append(b.completed, res)
	// insert into the descending score list
	i := sort.Search(len(b.scores), func(i int) bool { return b.scores[i] < score })
	b.scores = append(b.scores, 0)
	copy(b.scores[i+1:], b.scores[i:])
	b.scores[i] = score
	var snapshot []PairResult
	if b.stream != nil && b.visible(score) {
		snapshot = b.ranked()
	}
	b.mu.Unlock()
	return snapshot
}

// visible reports whether a completed score changes the result set a
// client can see (top-k membership, or θ reached).
func (b *planBar) visible(score float64) bool {
	if b.k == 0 {
		return score >= b.theta
	}
	if len(b.scores) <= b.k {
		return true
	}
	return score >= b.scores[b.k-1]
}

// ranked cuts the current result set from the completed pairs: top-k
// or everything at θ, in rank order. Caller holds mu (or owns b).
func (b *planBar) ranked() []PairResult {
	out := append([]PairResult(nil), b.completed...)
	sort.Slice(out, func(i, j int) bool { return rankLess(&out[i], &out[j], b.alt) })
	if b.k > 0 {
		if len(out) > b.k {
			out = out[:b.k]
		}
		return out
	}
	cut := len(out)
	for i, r := range out {
		if rankScore(b.alt, r.Tau) < b.theta {
			cut = i
			break
		}
	}
	return out[:cut]
}

// laggedBar makes a planned screen's pruning independent of the worker
// schedule. Finished pairs reach the shared bar in queue order, as the
// finished prefix of the queue grows, and pair i is pruned against the
// bar as it stood once the first i − planLag pairs had finished: a
// value fixed by the inputs and the seed alone. The bar of a finished
// pair that waits behind a running one stays pending, and so do its
// streamed snapshots.
type laggedBar struct {
	*planBar
	mu       sync.Mutex
	moved    sync.Cond // broadcast when frontier moves or the plan stops
	done     []bool
	full     []*PairResult // finished full tests not yet offered
	frontier int           // the first frontier queued pairs finished
	at       []float64     // at[f] is the bar once the first f pairs finished
	stopped  bool
}

func newLaggedBar(bar *planBar, n int) *laggedBar {
	l := &laggedBar{planBar: bar, done: make([]bool, n), full: make([]*PairResult, n), at: make([]float64, n+1)}
	l.moved.L = &l.mu
	l.at[0] = bar.bar()
	return l
}

// barFor returns queued pair i's pruning bar, waiting until the pairs
// it depends on finished. It reports false once a worker stopped early:
// the plan is being abandoned and those pairs may never finish.
func (l *laggedBar) barFor(i int) (float64, bool) {
	m := i - planLag
	if l.k == 0 || m <= 0 {
		return l.at[0], true // threshold mode's bar is θ throughout
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.frontier < m && !l.stopped {
		l.moved.Wait()
	}
	return l.at[m], l.frontier >= m
}

// finish records queued pair i's outcome and moves the frontier over
// every pair now finished, recording their full tests in queue order.
// The snapshots they produce are streamed after the lock is released.
func (l *laggedBar) finish(i int, res PairResult, full bool) {
	var snapshots [][]PairResult
	l.mu.Lock()
	l.done[i] = true
	if full {
		l.full[i] = &res
	}
	moved := false
	for l.frontier < len(l.done) && l.done[l.frontier] {
		if r := l.full[l.frontier]; r != nil {
			if snapshot := l.record(*r); snapshot != nil {
				snapshots = append(snapshots, snapshot)
			}
			l.full[l.frontier] = nil
		}
		l.frontier++
		l.at[l.frontier] = l.bar()
		moved = true
	}
	if moved {
		l.moved.Broadcast()
	}
	l.mu.Unlock()
	for _, snapshot := range snapshots {
		l.stream(snapshot)
	}
}

// stop wakes every waiting worker once a worker abandons the plan (a
// stale epoch or a cancellation): a pair may now depend on one nobody
// will finish.
func (l *laggedBar) stop() {
	l.mu.Lock()
	l.stopped = true
	l.moved.Broadcast()
	l.mu.Unlock()
}

// flush offers the full tests still pending behind unfinished pairs,
// so a canceled plan's partial ranking holds every completed pair.
func (l *laggedBar) flush() {
	for _, r := range l.full {
		if r != nil {
			l.offer(*r)
		}
	}
}

// planCandidate is one queued pair with its precomputed priority and
// prior score bound.
type planCandidate struct {
	pair     [2]string
	occA     int
	occB     int
	priority float64
	priorUB  float64
}

// Plan runs the prioritized top-k / threshold screen over the given
// candidate pairs. The returned pairs carry raw p-values (AdjP == P,
// Significant = P < Alpha); see PlanConfig for the two modes.
func Plan(g *graph.Graph, store *events.Store, pairs [][2]string, cfg PlanConfig) (PlanResult, error) {
	if cfg.H < 1 {
		return PlanResult{}, fmt.Errorf("screen: H must be >= 1")
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 900
	}
	if cfg.SampleSize < 2 {
		return PlanResult{}, fmt.Errorf("screen: sample size must be >= 2, got %d", cfg.SampleSize)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 || math.IsNaN(cfg.Alpha) {
		return PlanResult{}, fmt.Errorf("screen: alpha must be in (0,1), got %g", cfg.Alpha)
	}
	if cfg.MinOccurrences < 1 {
		cfg.MinOccurrences = 1
	}
	switch {
	case cfg.K < 0:
		return PlanResult{}, fmt.Errorf("screen: plan k must be >= 0, got %d", cfg.K)
	case cfg.K == 0:
		if math.IsNaN(cfg.Theta) || cfg.Theta < -1 || cfg.Theta > 1 {
			return PlanResult{}, fmt.Errorf("screen: threshold mode needs theta in [-1,1], got %g", cfg.Theta)
		}
	case cfg.Theta != 0:
		return PlanResult{}, fmt.Errorf("screen: theta is a threshold-mode parameter; it must be 0 when k > 0")
	}
	if math.IsNaN(cfg.BoundAlpha) || cfg.BoundAlpha >= 1 {
		return PlanResult{}, fmt.Errorf("screen: bound alpha must be below 1 (negative disables the statistical bound), got %g", cfg.BoundAlpha)
	}
	if cfg.BoundAlpha == 0 {
		cfg.BoundAlpha = defaultBoundAlpha
	}
	if cfg.FirstCheckpoint == 0 {
		cfg.FirstCheckpoint = stats.KendallNaiveCutoff
	}
	if cfg.FirstCheckpoint < 2 {
		return PlanResult{}, fmt.Errorf("screen: first checkpoint must be >= 2, got %d", cfg.FirstCheckpoint)
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
		return PlanResult{}, ErrStaleEpoch
	}
	if err := cfg.canceled(); err != nil {
		return PlanResult{}, err
	}

	memo, mem, eventIdx, err := bindSweepMemo(g, store, pairs, cfg.Config)
	if err != nil {
		return PlanResult{}, err
	}
	var hitsBefore int64
	if memo != nil {
		hitsBefore = memo.memoHits.Load()
	}

	st := PlanStats{Candidates: len(pairs)}
	bar := &planBar{k: cfg.K, theta: cfg.Theta, alt: cfg.Alternative, stream: cfg.Stream}

	// Phase 1 — the prior pass: skip degenerate pairs, compute each
	// survivor's priority (occurrence-set cosine overlap, a pure
	// co-location heuristic: order affects only how fast the bar
	// rises, never which pairs survive) and, when the vicinity index
	// allows, a sound prior bound on its score. This is the planner's
	// "query planning" step: O(K²) set intersections instead of O(K²)
	// full tests.
	total := len(pairs)
	var done atomic.Int64
	// Same contract as Run's Progress: exactly once per candidate,
	// each value 1..total delivered once, no lock held.
	progress := func() {
		d := int(done.Add(1))
		if cfg.Progress != nil {
			cfg.Progress(d, total)
		}
	}
	reach := priorReach(g, store, cfg)
	queue := make([]planCandidate, 0, len(pairs))
	var skippedEarly int
	for _, pair := range pairs {
		c := planCandidate{pair: pair, occA: store.Count(pair[0]), occB: store.Count(pair[1]), priorUB: 1}
		if c.occA < cfg.MinOccurrences || c.occB < cfg.MinOccurrences {
			skippedEarly++
			progress()
			continue
		}
		va, vb := store.Set(pair[0]), store.Set(pair[1])
		overlap := va.CountIn(vb.Members())
		c.priority = float64(overlap) / math.Sqrt(float64(c.occA)*float64(c.occB))
		if reach != nil {
			c.priorUB = math.Min(reach.scoreUB(pair[0], c.occA, c.occB), reach.scoreUB(pair[1], c.occA, c.occB))
		}
		queue = append(queue, c)
	}
	st.Skipped = skippedEarly
	// The materialized max-priority queue: priorities are static, so a
	// deterministic sort plus an atomic cursor is the queue — workers
	// pop best-first without a heap's lock traffic.
	sort.Slice(queue, func(i, j int) bool {
		if queue[i].priority != queue[j].priority {
			return queue[i].priority > queue[j].priority
		}
		if queue[i].pair[0] != queue[j].pair[0] {
			return queue[i].pair[0] < queue[j].pair[0]
		}
		return queue[i].pair[1] < queue[j].pair[1]
	})

	// Phase 2 — best-first evaluation with bound pruning. Queued pair i
	// is pruned against the bar of the pairs before i − planLag (see
	// laggedBar), so which pairs are pruned — and so every PlanStats
	// counter — depends on the inputs and the seed, not on Workers or
	// the schedule.
	lag := newLaggedBar(bar, len(queue))
	var (
		next       atomic.Int64
		staleStop  atomic.Bool
		cancelStop atomic.Bool
		mu         sync.Mutex // guards the shared counters below
	)
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
		var local planStats64
		for {
			i := int(next.Add(1)) - 1
			if i >= len(queue) {
				break
			}
			if stale() {
				staleStop.Store(true)
				lag.stop()
				break
			}
			if cfg.canceled() != nil {
				cancelStop.Store(true)
				lag.stop()
				break
			}
			pairBar, ok := lag.barFor(i)
			if !ok {
				break
			}
			c := queue[i]
			var fate pairFate
			var res PairResult
			if c.priorUB < pairBar {
				// The reach bound already caps this pair below the bar:
				// discarded without sampling a single reference.
				fate = fatePrunedPrior
			} else {
				res, fate = planPair(g, store, c, cfg, sampler, src, eventIdx, pairBar, &local)
				if fate == fateCanceled {
					cancelStop.Store(true)
					lag.stop()
					break
				}
			}
			lag.finish(i, res, fate == fateFull)
			mu.Lock()
			switch fate {
			case fateFull:
				st.FullTests++
			case fatePrunedEarly:
				st.PrunedEarly++
			case fatePrunedPrior:
				st.PrunedPrior++
			case fateSkipped:
				st.Skipped++
			}
			mu.Unlock()
			progress()
		}
		mu.Lock()
		st.Checkpoints += int(local.checkpoints)
		st.DensityEvals += local.densityEvals
		st.BFSRuns += local.bfsRuns
		mu.Unlock()
	}
	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	lag.flush()
	if staleStop.Load() || stale() {
		return PlanResult{}, ErrStaleEpoch
	}

	if memo != nil {
		st.MemoHits = memo.memoHits.Load() - hitsBefore
	}
	out := PlanResult{Pairs: bar.ranked(), Stats: st}
	if cancelStop.Load() {
		// A canceled plan is the one abandonment that keeps its partial
		// work: every pair in the bar completed its full exact test, so
		// the ranking-so-far is sound over the pairs evaluated — the
		// planner API already models partial results for streaming.
		// The error still reports the sweep as incomplete.
		return out, cfg.canceled()
	}
	return out, nil
}

// checkpointScoreBound is the planner's pruning core: given the
// Kendall statistic of the first m of n sampled references, it boxes
// the pair's final score. The deterministic completion interval always
// holds; when boundAlpha > 0 the statistical prefix interval is
// intersected with it — unless the intersection is empty (the
// statistical interval has already lied), in which case the
// deterministic box stands alone. Pure and lock-free so the
// adversarial tests can drive it with synthetic density prefixes.
func checkpointScoreBound(alt stats.Alternative, k stats.TauResult, m, n int, boundAlpha float64) (sLo, sHi float64) {
	lo, hi := stats.TauCompletionInterval(k.Concordant-k.Discordant, m, n)
	if boundAlpha > 0 {
		cLo, cHi := stats.TauPrefixConfidenceInterval(k.Tau, m, n, boundAlpha)
		if math.Max(lo, cLo) <= math.Min(hi, cHi) {
			lo, hi = math.Max(lo, cLo), math.Min(hi, cHi)
		}
	}
	return scoreInterval(alt, lo, hi)
}

// pairFate classifies how the planner disposed of a candidate.
type pairFate int

const (
	fateFull pairFate = iota
	fatePrunedEarly
	fatePrunedPrior
	fateSkipped
	// fateCanceled marks a pair abandoned mid-evaluation because the
	// sweep's context was canceled; the worker stops and Plan returns
	// the bar's partial ranking with the cancellation error.
	fateCanceled
)

// planStats64 is a worker's private accounting, folded once at exit.
type planStats64 struct {
	checkpoints  int64
	densityEvals int64
	bfsRuns      int64
}

// planPair evaluates one candidate incrementally: draw the exact
// reference sample Run would draw, then walk the checkpoint schedule,
// extending the density prefix and pruning as soon as the score bound
// drops below bar (the pair's laggedBar value). A pair that survives every checkpoint finishes
// with the full-sample Kendall statistic — bit-identical to
// screenOne's, since the same density vectors reach the same kernel.
func planPair(g *graph.Graph, store *events.Store, c planCandidate, cfg PlanConfig, sampler core.Sampler, src *memoSource, eventIdx map[string]int, bar float64, local *planStats64) (PairResult, pairFate) {
	res := PairResult{A: c.pair[0], B: c.pair[1], OccA: c.occA, OccB: c.occB}

	var p *core.Problem
	var err error
	if src != nil && src.shared != nil {
		p, err = src.shared.problemFor(g, store, c.pair)
	} else {
		p, err = core.NewProblem(g, store.Set(c.pair[0]), store.Set(c.pair[1]))
	}
	if err != nil {
		res.Skipped = err.Error()
		return res, fateSkipped
	}

	// The same per-pair rng screenOne builds: the sampler consumes it
	// identically, so the reference sample is the exhaustive sweep's.
	seed := pairSeed(cfg.Seed, c.pair[0], c.pair[1])
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	sample, err := sampler.SampleReferences(p, cfg.H, cfg.SampleSize, rng)
	if err != nil {
		res.Skipped = err.Error()
		return res, fateSkipped
	}
	nodes := sample.Nodes
	n := len(nodes)

	var source core.DensitySource
	if src != nil {
		src.retarget(eventIdx[c.pair[0]], eventIdx[c.pair[1]])
		source = src
	} else {
		bfs := g.AcquireBFS()
		defer g.ReleaseBFS(bfs)
		source = core.NewDensityEvaluatorBFS(p, cfg.H, bfs)
	}

	sa := make([]float64, 0, n)
	sb := make([]float64, 0, n)
	evalTo := func(m int) {
		before := source.Traversals()
		csa, csb, _ := source.EvalAll(nodes[len(sa):m])
		local.bfsRuns += source.Traversals() - before
		local.densityEvals += int64(len(csa))
		sa = append(sa, csa...)
		sb = append(sb, csb...)
	}

	for _, m := range checkpointSchedule(cfg.FirstCheckpoint, n) {
		// Checkpoints are the planner's natural cancellation points:
		// the densities already paid for stay in the memo, and nothing
		// partial ever reaches the bar.
		if cfg.canceled() != nil {
			return res, fateCanceled
		}
		evalTo(m)
		local.checkpoints++
		k := stats.KendallAuto(sa, sb)
		_, scoreUB := checkpointScoreBound(cfg.Alternative, k, m, n, cfg.BoundAlpha)
		// Strictly below the bar: the pair's final score cannot reach
		// the k-th best completed score (or θ), under the bound. Ties
		// at the bar keep running — that is what makes the planned
		// top-k set exactly the exhaustive one's.
		if scoreUB < bar {
			return res, fatePrunedEarly
		}
	}
	evalTo(n)
	k := stats.KendallAuto(sa, sb)
	res.Tau, res.Z = k.Tau, k.Z
	res.P = stats.PValueZ(res.Z, cfg.Alternative)
	res.AdjP = res.P
	res.Significant = res.P < cfg.Alpha
	return res, fateFull
}

// priorReach precomputes the per-event vicinity reach used by the
// prior bound: on an undirected graph, a reference node's density for
// event E is nonzero only if the node lies within h of an occurrence
// of E, and at most Σ_{v∈E} |V^h_v| nodes do. When that reach is
// smaller than the sample, most sampled references tie at density 0
// and |τ| is capped at 1 − C(n−nz,2)/C(n,2) — computable from the
// index alone, before any test work.
type priorReachBound struct {
	sampleSize int
	reach      map[string]float64
}

func priorReach(g *graph.Graph, store *events.Store, cfg PlanConfig) *priorReachBound {
	ix := cfg.Index
	if ix == nil || g.Directed() || ix.Graph() != g || ix.MaxLevel() < cfg.H {
		return nil
	}
	r := &priorReachBound{sampleSize: cfg.SampleSize, reach: make(map[string]float64, len(store.Names()))}
	for _, name := range store.Names() {
		r.reach[name] = ix.SumSizes(store.Set(name).Members(), cfg.H)
	}
	return r
}

// scoreUB bounds the event's contribution to any pair score. The
// sample size is not known before sampling (the population can be
// smaller than the request), so the bound is maximized over every
// feasible size: n' ≥ min(SampleSize, max(occA, occB)) because the
// union's own occurrence nodes are always in the population. Returns
// 1 (no information) whenever the reach covers the sample.
func (r *priorReachBound) scoreUB(event string, occA, occB int) float64 {
	reach, ok := r.reach[event]
	if !ok {
		return 1
	}
	nLow := min(r.sampleSize, max(occA, occB))
	if nLow < 2 || reach >= float64(nLow) {
		return 1
	}
	nz := reach
	nf := float64(nLow)
	// 1 − C(n−nz,2)/C(n,2): the zero-density ties contribute nothing
	// to the Kendall numerator.
	return 1 - ((nf-nz)*(nf-nz-1))/(nf*(nf-1))
}
