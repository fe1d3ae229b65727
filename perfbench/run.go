package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets up a fresh server; setup_s is
// their median and the last one serves the traffic.
const setupReps = 7

// phase is one traffic segment of a cycle.
type phase struct {
	kind    string  // "correlate", "screen", "mutate" or "churn"
	seconds float64 // length within one cycle
}

// cycles gives each workload one round of traffic: its main traffic
// first, then short probes so that every end-to-end metric is measured
// on every workload. A run repeats the cycle until its seconds are
// spent, so each metric samples the whole run and a burst of noise
// from outside the process hits all of them alike.
var cycles = map[string][]phase{
	"correlate": {{"correlate", 1.2}, {"screen", 0.6}, {"mutate", 0.7}},
	"screen":    {{"screen", 1.5}, {"correlate", 0.4}, {"mutate", 0.6}},
	"churn":     {{"churn", 1.8}, {"screen", 0.7}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // scratch space for data dirs and the trace file
}

// bootServer sets up setupReps fresh servers in turn, timing each
// set-up, and returns the last one. Only churn runs durable.
func bootServer(ctx context.Context, cfg config, w *world) (*harness, []float64, error) {
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var h *harness
	var times []float64
	for rep := 0; rep < reps; rep++ {
		if h != nil {
			h.close()
		}
		dir := ""
		if cfg.workload == "churn" {
			dir = filepath.Join(cfg.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), rep))
		}
		var err error
		if h, err = startHarness(dir); err != nil {
			return nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		err = h.setup(ctx, w)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			h.close()
			return nil, nil, err
		}
	}
	return h, times, nil
}

// drive repeats the workload's cycle for about seconds. It returns the
// correlate throughput of each correlate-bearing segment and the peak
// resident set size of each cycle, in MB.
func (r *runner) drive(kind string, seconds float64) (qps, rss []float64) {
	peak := startRSSSampler()
	defer peak.stop()
	var cycleLen float64
	for _, p := range cycles[kind] {
		cycleLen += p.seconds
	}
	n := max(1, int(seconds/cycleLen+0.5))
	scale := seconds / (float64(n) * cycleLen)
	for c := 0; c < n; c++ {
		r.cycle = c
		peak.reset()
		for _, p := range cycles[kind] {
			start := time.Now()
			until := start.Add(time.Duration(p.seconds * scale * float64(time.Second)))
			ok := r.corr.succeeded()
			switch p.kind {
			case "correlate":
				r.correlateLoop(2, until)
			case "screen":
				r.screenLoop(until)
			case "mutate":
				r.mutateLoop(until)
			case "churn":
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.mutateLoop(until)
				}()
				r.correlateLoop(1, until)
				wg.Wait()
			}
			if p.kind == "correlate" || p.kind == "churn" {
				qps = append(qps, float64(r.corr.succeeded()-ok)/time.Since(start).Seconds())
			}
		}
		rss = append(rss, peak.reset())
	}
	return qps, rss
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, cfg config, w *world) (result, error) {
	h, setupTimes, err := bootServer(ctx, cfg, w)
	if err != nil {
		return result{}, err
	}
	defer h.close()
	info, err := h.cl.GetGraph(ctx, benchGraph)
	if err != nil {
		return result{}, err
	}
	before, err := h.cl.Health(ctx)
	if err != nil {
		return result{}, err
	}
	r := newRunner(ctx, h, w, nil)
	runtime.GC()
	qps, rss := r.drive(cfg.workload, cfg.seconds)
	after, err := h.cl.Health(ctx)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# healthz deltas: index_built %d, index_refreshed %d, snapshot_saved %d, wal_fsyncs %d\n",
		after.IndexBuilt-before.IndexBuilt, after.IndexRefreshed-before.IndexRefreshed,
		after.SnapshotSaved-before.SnapshotSaved, after.WALFsyncs-before.WALFsyncs)
	m := map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"correlate_p50_ms": {r.corr.quantileMS(0.50), "ms"},
		"correlate_p90_ms": {r.corr.quantileMS(0.90), "ms"},
		"correlate_qps":    {median(qps), "1/s"},
		"sweep_p50_ms":     {r.sweep.quantileMS(0.50), "ms"},
		"topk_p50_ms":      {r.topk.quantileMS(0.50), "ms"},
		"mutate_p50_ms":    {r.mutate.quantileMS(0.50), "ms"},
		"mutate_p90_ms":    {r.mutate.quantileMS(0.90), "ms"},
		"rss_peak_mb":      {median(rss), "MB"},
	}
	fmt.Printf("# correlate %d (recall %.3f), sweep %d, top-k %d, mutate %d; setup runs %.3f s; process VmHWM %.1f MB\n",
		len(r.corr.lat), float64(r.positives.Load())/float64(max(len(r.corr.lat), 1)),
		len(r.sweep.lat), len(r.topk.lat), len(r.mutate.lat), setupTimes, procStatusMB("VmHWM:"))
	// p99s are printed, not reported: they did not repeat within the
	// metrics' bound across runs on a shared 2-core machine (README.md).
	fmt.Printf("# p99 (not gated): correlate %.3f ms, mutate %.3f ms\n", r.corr.quantileMS(0.99), r.mutate.quantileMS(0.99))

	// Answer checks, after the timed traffic.
	if err := r.check(info.Epoch); err != nil {
		return result{}, err
	}
	res := r.outcome()
	m["correct_frac"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "fraction"}
	res.Metrics = m
	return res, nil
}

// check runs every answer check that follows the traffic.
func (r *runner) check(epoch0 uint64) error {
	r.finalQuery()
	r.checkSweep()
	return r.checkCorrelates(epoch0)
}

// outcome folds every operation kind into the result's counts and
// prints the first error of each kind that failed.
func (r *runner) outcome() result {
	res := result{Correct: true}
	for _, k := range []struct {
		name string
		o    *ops
	}{{"correlate", &r.corr}, {"sweep", &r.sweep}, {"topk", &r.topk}, {"mutate", &r.mutate}} {
		res.Attempted += k.o.attempted
		res.Failed += k.o.failed
		if k.o.failed > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d %s operations failed; first: %v\n", k.o.failed, k.o.attempted, k.name, k.o.firstErr)
		}
	}
	return res
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// procStatusMB reads one kB field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler tracks the peak resident set size (VmRSS, sampled every
// 5 ms) since its last reset.
type rssSampler struct {
	peak atomic.Uint64 // math.Float64bits of the peak MB
	quit chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.observe(procStatusMB("VmRSS:"))
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) observe(mb float64) {
	for {
		old := s.peak.Load()
		if mb <= math.Float64frombits(old) || s.peak.CompareAndSwap(old, math.Float64bits(mb)) {
			return
		}
	}
}

// reset returns the peak since the last reset and restarts it from the
// current resident set size.
func (s *rssSampler) reset() float64 {
	now := procStatusMB("VmRSS:")
	s.observe(now)
	return math.Float64frombits(s.peak.Swap(math.Float64bits(now)))
}

// stop ends the sampling goroutine and waits for it.
func (s *rssSampler) stop() {
	close(s.quit)
	<-s.done
}
