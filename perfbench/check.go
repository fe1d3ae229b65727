package main

import (
	"fmt"
	"sort"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/screen"
	"tesc/internal/stats"
)

// sameAnswer compares a served correlate bit for bit with the library's.
func sameAnswer(got api.CorrelateResponse, want tesc.Result) error {
	if got.Tau != want.Tau || got.Z != want.Z || got.P != want.P {
		return fmt.Errorf("served (τ=%v z=%v p=%v), library (τ=%v z=%v p=%v)",
			got.Tau, got.Z, got.P, want.Tau, want.Z, want.P)
	}
	return nil
}

// maxCheckedVersions caps the graph versions the correlate replay
// rebuilds; each costs a replay and a fresh index build.
const maxCheckedVersions = 16

// checkCorrelates replays the kept correlate responses with
// tesc.Correlation, each on the graph version it was answered at: the
// generated graph plus the acknowledged batches up to that epoch, with
// a freshly built index. Up to maxCheckedVersions versions are checked,
// evenly spaced and always including the first and the last; each
// mismatch is a failed correlate.
func (r *runner) checkCorrelates(epoch0 uint64) error {
	byEpoch := make(map[uint64][]corrSample)
	var epochs []uint64
	for _, s := range r.corrSamples {
		if byEpoch[s.resp.Epoch] == nil {
			epochs = append(epochs, s.resp.Epoch)
		}
		byEpoch[s.resp.Epoch] = append(byEpoch[s.resp.Epoch], s)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	picked := epochs
	if len(epochs) > maxCheckedVersions {
		picked = nil
		for i := 0; i < maxCheckedVersions; i++ {
			picked = append(picked, epochs[i*(len(epochs)-1)/(maxCheckedVersions-1)])
		}
	}
	for _, e := range picked {
		samples := byEpoch[e]
		if e < epoch0 || e-epoch0 > uint64(len(r.batches)) {
			for _, s := range samples {
				r.corr.fail(fmt.Errorf("pair %d seed %d answered at epoch %d, outside [%d, %d]", s.pair, s.seed, e, epoch0, epoch0+uint64(len(r.batches))))
			}
			continue
		}
		g, err := r.graphAt(int(e - epoch0))
		if err != nil {
			return err
		}
		idx, err := g.BuildVicinityIndex(hops, 0)
		if err != nil {
			return err
		}
		for _, s := range samples {
			want, err := r.w.correlateOracle(g, idx, s.pair, s.seed)
			if err == nil {
				err = sameAnswer(s.resp, want)
			}
			if err != nil {
				r.corr.fail(fmt.Errorf("pair %d seed %d at epoch %d: %w", s.pair, s.seed, e, err))
			}
		}
	}
	return nil
}

// finalQuery sends one more correlate after all traffic and keeps it for
// the replay, so the last graph version is always checked: the served
// state must equal the acknowledged writes replayed locally.
func (r *runner) finalQuery() {
	seed := r.nextSeed()
	start := time.Now()
	resp, err := r.h.cl.Correlate(r.ctx, benchGraph, correlateRequest(0, seed))
	r.corr.record(r.cycle, time.Since(start), err)
	if err != nil {
		return
	}
	r.corrSamples = append(r.corrSamples, corrSample{0, seed, resp})
}

// sweepOracle runs the exhaustive sweep of the vocabulary in-process, as
// tesc.Screen configures it for a served sweep job.
func (w *world) sweepOracle(seed uint64) (screen.Result, error) {
	return screen.Run(w.g.Internal(), w.vocab, screen.AllPairs(w.vocab, 1),
		screen.Config{H: hops, Alternative: stats.Greater, Seed: seed})
}

// planOracle is sweepOracle's planned top-k counterpart.
func (w *world) planOracle(seed uint64) (screen.PlanResult, error) {
	return screen.Plan(w.g.Internal(), w.vocab, screen.AllPairs(w.vocab, 1),
		screen.PlanConfig{Config: screen.Config{H: hops, Alternative: stats.Greater, Seed: seed}, K: topK})
}

// sameSweep checks a served sweep against the library's: every pair's
// statistics bit for bit, and the density-evaluation total exactly.
// The BFSRuns/MemoHits split is not compared: it depends on the worker
// schedule.
func sameSweep(got *api.ScreenResult, want screen.Result) error {
	if len(got.Pairs) != len(want.Pairs) {
		return fmt.Errorf("served %d pairs, library %d", len(got.Pairs), len(want.Pairs))
	}
	for i, p := range got.Pairs {
		q := want.Pairs[i]
		if p.A != q.A || p.B != q.B || p.Tau != q.Tau || p.Z != q.Z || p.P != q.P || p.AdjP != q.AdjP {
			return fmt.Errorf("rank %d: served %s/%s τ=%v adj_p=%v, library %s/%s τ=%v adj_p=%v",
				i, p.A, p.B, p.Tau, p.AdjP, q.A, q.B, q.Tau, q.AdjP)
		}
	}
	if g, w := got.BFSRuns+got.MemoHits, want.BFSRuns+want.MemoHits; g != w {
		return fmt.Errorf("served %d density evaluations (bfs_runs+memo_hits), library %d", g, w)
	}
	return nil
}

// checkSweep replays the run's first sweep job in-process.
func (r *runner) checkSweep() {
	if r.firstSweep == nil {
		return
	}
	want, err := r.w.sweepOracle(r.firstSeed)
	if err == nil {
		err = sameSweep(r.firstSweep, want)
	}
	if err != nil {
		r.sweep.fail(fmt.Errorf("sweep seed %d: %w", r.firstSeed, err))
	}
}
