package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

const (
	// checkEvery selects the deterministic subset of correlate
	// responses replayed against the library: each client's requests
	// 0, checkEvery, 2·checkEvery, ...
	checkEvery = 32
	// jobPoll is the client's GET /v1/jobs interval while waiting.
	jobPoll = 2 * time.Millisecond
)

// ops accumulates one operation kind's outcomes. Latencies are kept for
// successful operations only, each tagged with the traffic cycle it ran
// in; a failure counts in failed.
type ops struct {
	mu        sync.Mutex
	lat       []time.Duration
	cyc       []int
	attempted int
	failed    int
	firstErr  error
}

func (o *ops) record(cycle int, d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
		return
	}
	o.lat = append(o.lat, d)
	o.cyc = append(o.cyc, cycle)
}

// fail turns an already-recorded success into a failure: the answer
// came back but was wrong.
func (o *ops) fail(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// quantileMS is the run's q-quantile latency in milliseconds, robust to
// bursts of outside load: consecutive cycles are grouped until a group
// holds at least 10/(1−q) samples (ten beyond the quantile), each
// group's nearest-rank q-quantile is taken, and the median over groups
// is reported. 0 when there are no samples.
func (o *ops) quantileMS(q float64) float64 {
	minGroup := int(10/(1-q) + 0.5)
	var groups [][]time.Duration
	var cur []time.Duration
	for i := 0; i < len(o.lat); {
		j := i
		for j < len(o.lat) && o.cyc[j] == o.cyc[i] {
			j++
		}
		cur = append(cur, o.lat[i:j]...)
		if len(cur) >= minGroup {
			groups = append(groups, cur)
			cur = nil
		}
		i = j
	}
	if len(groups) == 0 {
		groups = append(groups, cur)
	} else {
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	var qs []float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		k := min(max(int(q*float64(len(g))+0.999999)-1, 0), len(g)-1)
		qs = append(qs, float64(g[k].Nanoseconds())/1e6)
	}
	return median(qs)
}

// succeeded counts the successful operations so far.
func (o *ops) succeeded() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.lat)
}

// corrSample is a correlate response kept for the oracle replay.
type corrSample struct {
	pair int
	seed uint64
	resp api.CorrelateResponse
}

// runner drives one harness with closed-loop clients: each client sends
// its next request when the previous reply arrives.
type runner struct {
	ctx context.Context
	h   *harness
	w   *world
	tr  *tracer // nil in untraced runs

	seedBase uint64
	seq      atomic.Uint64
	cycle    int // traffic cycle now running; set between segments

	corr, sweep, topk, mutate ops

	mu          sync.Mutex // guards corrSamples
	corrSamples []corrSample
	positives   atomic.Int64
	firstSweep  *api.ScreenResult // kept for the library replay
	firstSeed   uint64

	// Mutation state: the flip stream tracks the server's edge set, and
	// batches holds every acknowledged batch in the order the server
	// applied it; batch k published epoch epoch0+k+1.
	stream  *graphgen.FlipStream
	edges   int64
	batches [][]graph.EdgeChange
}

func newRunner(ctx context.Context, h *harness, w *world, tr *tracer) *runner {
	return &runner{ctx: ctx, h: h, w: w, tr: tr, seedBase: w.seed << 32, edges: w.g.NumEdges()}
}

// nextSeed returns a request seed no other request of the run uses, so
// coalescing never merges two requests.
func (r *runner) nextSeed() uint64 { return r.seedBase + r.seq.Add(1) }

// correlateLoop runs closed-loop importance correlates from clients
// goroutines until the deadline, rotating over the planted pairs, and
// keeps the deterministic subset for the oracle replay.
func (r *runner) correlateLoop(clients int, until time.Time) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(until); i++ {
				pair := (c*plantedPairs/2 + i) % plantedPairs
				seed := r.nextSeed()
				span := r.tr.begin("client.correlate", 0)
				start := time.Now()
				resp, err := r.h.cl.Correlate(r.ctx, benchGraph, correlateRequest(pair, seed))
				r.corr.record(r.cycle, time.Since(start), err)
				r.tr.end(span)
				if err != nil {
					continue
				}
				if resp.Verdict == "positive" {
					r.positives.Add(1)
				}
				if i%checkEvery == 0 {
					r.mu.Lock()
					r.corrSamples = append(r.corrSamples, corrSample{pair, seed, resp})
					r.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
}

// screenLoop alternates an exhaustive sweep with a planned top-k screen
// of the vocabulary until the deadline, each pair of jobs on a fresh
// seed, and checks every top-k against its sweep's head.
func (r *runner) screenLoop(until time.Time) {
	for time.Now().Before(until) {
		seed := r.nextSeed()
		sweep, err := r.job("client.sweep", screenRequest(0, seed), &r.sweep)
		if err != nil {
			continue
		}
		if r.firstSweep == nil {
			r.firstSweep, r.firstSeed = sweep, seed
		}
		top, err := r.job("client.topk", screenRequest(topK, seed), &r.topk)
		if err != nil {
			continue
		}
		if err := topKMatches(sweep.Pairs, top.Pairs); err != nil {
			r.topk.fail(fmt.Errorf("seed %d: %w", seed, err))
		}
	}
}

// job submits a screen and waits for it; its latency runs from submit
// until WaitJob returns.
func (r *runner) job(name string, req api.ScreenRequest, o *ops) (*api.ScreenResult, error) {
	span := r.tr.begin(name, 0)
	defer r.tr.end(span)
	start := time.Now()
	acc, err := r.h.cl.Screen(r.ctx, vocabGraph, req)
	var view api.JobView
	if err == nil {
		view, err = r.h.cl.WaitJob(r.ctx, acc.JobID, jobPoll)
	}
	if err == nil && (view.Status != api.JobDone || view.Result == nil) {
		err = fmt.Errorf("job %s ended %s: %s", acc.JobID, view.Status, view.Error)
	}
	o.record(r.cycle, time.Since(start), err)
	return view.Result, err
}

// topKMatches checks that a planned top-k equals the head of the
// exhaustive sweep ranked by τ: the same τ at every rank, and every
// returned pair bit-identical to that pair's sweep result. Pairs with
// equal τ may come back in either order.
func topKMatches(sweep, top []api.ScreenedPair) error {
	tested := make([]api.ScreenedPair, 0, len(sweep))
	byName := make(map[[2]string]api.ScreenedPair, len(sweep))
	for _, p := range sweep {
		if p.Skipped == "" {
			tested = append(tested, p)
			byName[[2]string{p.A, p.B}] = p
		}
	}
	sort.Slice(tested, func(i, j int) bool { return tested[i].Tau > tested[j].Tau })
	if want := min(topK, len(tested)); len(top) != want {
		return fmt.Errorf("top-k returned %d pairs, want %d", len(top), want)
	}
	seen := make(map[[2]string]bool, len(top))
	for i, p := range top {
		key := [2]string{p.A, p.B}
		q, ok := byName[key]
		switch {
		case seen[key]:
			return fmt.Errorf("top-k returned %s/%s twice", p.A, p.B)
		case !ok:
			return fmt.Errorf("top-k rank %d: %s/%s is not a tested sweep pair", i, p.A, p.B)
		case p.Tau != tested[i].Tau:
			return fmt.Errorf("top-k rank %d: τ=%v, sweep rank %d has τ=%v", i, p.Tau, i, tested[i].Tau)
		case p.Tau != q.Tau || p.Z != q.Z || p.P != q.P:
			return fmt.Errorf("top-k pair %s/%s (τ=%v p=%v) differs from its sweep result (τ=%v p=%v)", p.A, p.B, p.Tau, p.P, q.Tau, q.P)
		}
		seen[key] = true
	}
	return nil
}

// mutateLoop sends closed-loop flip batches to the bench graph until the
// deadline, checking each acknowledgement against the stream's own view
// of the edge set.
func (r *runner) mutateLoop(until time.Time) {
	if r.stream == nil {
		r.stream = graphgen.NewFlipStream(r.w.g.Internal(), 0.5, rngFor(r.w.seed, 0xf11b))
	}
	for time.Now().Before(until) {
		var req api.MutateEdgesRequest
		var ins, del []graph.EdgeChange
		for _, c := range r.stream.Take(flipsPerBatch) {
			if c.Insert {
				req.Insert = append(req.Insert, [2]int{int(c.U), int(c.V)})
				ins = append(ins, c)
			} else {
				req.Delete = append(req.Delete, [2]int{int(c.U), int(c.V)})
				del = append(del, c)
			}
		}
		r.edges += int64(len(ins) - len(del))
		span := r.tr.begin("client.mutate", 0)
		start := time.Now()
		resp, err := r.h.cl.MutateEdges(r.ctx, benchGraph, req)
		d := time.Since(start)
		r.tr.end(span)
		if err == nil {
			// The server applies a batch's inserts before its deletes.
			r.batches = append(r.batches, append(ins, del...))
		}
		if err == nil && (resp.Inserted != len(ins) || resp.Deleted != len(del) || resp.Edges != r.edges) {
			err = fmt.Errorf("mutation ack +%d -%d edges=%d, want +%d -%d edges=%d",
				resp.Inserted, resp.Deleted, resp.Edges, len(ins), len(del), r.edges)
		}
		r.mutate.record(r.cycle, d, err)
	}
}

// graphAt replays the first k acknowledged batches on the generated
// graph.
func (r *runner) graphAt(k int) (*tesc.Graph, error) {
	if k == 0 {
		return r.w.g, nil
	}
	d := graph.NewDelta(r.w.g.Internal())
	for _, b := range r.batches[:k] {
		if _, err := d.Apply(b); err != nil {
			return nil, err
		}
	}
	return tesc.FromInternal(d.Compact()), nil
}
