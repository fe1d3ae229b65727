// Command tescbench regenerates the tables and figures of the paper's
// evaluation section (§5) on the surrogate datasets.
//
// Usage:
//
//	tescbench -exp fig5            # one experiment
//	tescbench -exp all             # everything (minutes at default scale)
//	tescbench -exp table1 -dblp-scale 1.0 -pairs 100   # paper-sized
//
// Output is aligned text: one block per figure/table, directly
// comparable with the published plots.
//
// With -serve, tescbench instead load-tests a running tescd daemon:
// it registers a synthetic graph with a planted attracting event pair,
// then fires concurrent correlate queries and reports queries/sec and
// latency percentiles.
//
//	tescd &
//	tescbench -serve http://localhost:8537 -serve-requests 500 -serve-concurrency 16
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tesc/internal/bench"
)

func main() {
	def := bench.DefaultConfig()
	var (
		exp        = flag.String("exp", "all", "experiment id ("+strings.Join(bench.IDs(), " | ")+" | all)")
		dblpScale  = flag.Float64("dblp-scale", def.DBLPScale, "DBLP surrogate scale (1.0 = ~100k nodes; paper ≈ 9.6)")
		intrNodes  = flag.Int("intrusion-nodes", def.IntrusionNodes, "Intrusion surrogate node count (paper: 200858)")
		twScaleExp = flag.Int("twitter-scale-exp", def.TwitterScaleExp, "Twitter surrogate R-MAT exponent (paper ≈ 24)")
		pairs      = flag.Int("pairs", def.Pairs, "event pairs per recall point (paper: 100)")
		sample     = flag.Int("n", def.SampleSize, "reference sample size (paper: 900)")
		reps       = flag.Int("reps", def.Reps, "repetitions for timing points (paper: 50)")
		seed       = flag.Uint64("seed", def.Seed, "random seed")
		workers    = flag.Int("workers", 0, "index-construction workers (0 = GOMAXPROCS)")

		topk      = flag.Bool("topk", false, "run the planner workload: top-k screening vs the exhaustive sweep on the K=32 (496-pair) surrogate, reporting full tests saved")
		topkScale = flag.Float64("topk-scale", 1.0, "coauthorship surrogate scale in -topk mode (1.0 = ~100k nodes)")
		topkH     = flag.Int("topk-h", 2, "vicinity level in -topk mode")
		topkKs    = flag.String("topk-k", "1,5,10,25", "comma-separated k ladder in -topk mode")

		churn        = flag.Bool("churn", false, "run the churn workload: FlipStream mutations against a standing monitor, reporting incremental vs full re-screen latency")
		churnScale   = flag.Float64("churn-scale", 1.0, "coauthorship surrogate scale in -churn mode (1.0 = ~100k nodes)")
		churnH       = flag.Int("churn-h", 2, "vicinity level in -churn mode")
		churnBatches = flag.Int("churn-batches", 50, "mutation batches in -churn mode")
		churnFlips   = flag.Int("churn-flips", 10, "edge flips per batch in -churn mode")
		churnOcc     = flag.Int("churn-occurrences", 500, "occurrences per event in -churn mode")
		churnRegion  = flag.Int("churn-region", 2000, "community-region size the events cluster in (-churn mode)")
		churnFsync   = flag.String("churn-fsync", "always,interval,off", "comma-separated WAL fsync policies to time in -churn mode (empty skips the WAL column)")
		soak         = flag.Duration("soak", 0, "run an in-process tescd soak for this duration: FlipStream mutations against live monitors (built for the nightly -race job)")
		soakRecover  = flag.Duration("soak-recover", 0, "run a kill-and-recover soak for this duration: a durable tescd is killed mid-stream and rebooted from snapshot+WAL in a loop, verifying epoch continuity each cycle")
		soakReplica  = flag.Duration("soak-replica", 0, "run a replication soak for this duration: two read replicas follow a churning primary through a faulty transport (drops, corruption, partitions) with crash-restarts, verifying convergence after every heal")

		overload       = flag.Bool("overload", false, "run the overload benchmark: an in-process tescd with tight admission bounds is measured unloaded and then flooded at 2x its foreground bound (plus background screens and a hog tenant), reporting accepted-latency percentiles and shed rates")
		overloadFG     = flag.Int("overload-fg", 2, "foreground in-flight bound in -overload mode")
		overloadBG     = flag.Int("overload-bg", 1, "background job bound in -overload mode")
		overloadQPS    = flag.Float64("overload-qps", 30, "per-tenant sustained QPS quota in -overload mode")
		overloadBurst  = flag.Float64("overload-burst", 10, "per-tenant burst allowance in -overload mode")
		overloadRounds = flag.Int("overload-rounds", 24, "requests per flood client in -overload mode")
		overloadNodes  = flag.Int("overload-nodes", 16000, "synthetic graph size in -overload mode")
		soakOverload   = flag.Duration("soak-overload", 0, "run an overload soak for this duration: cycles of flood burst + acked mutations + graceful drain + reboot, verifying typed sheds and exact acked-epoch recovery each cycle (built for the nightly -race job)")
		soakCluster    = flag.Duration("soak-cluster", 0, "run a cluster soak for this duration: a 3-member coordinator (owner + replica each) against a single-node oracle, with owner kills, replica-served reads, typed no_owner sheds, and snapshot+WAL rejoin each cycle; every read must be byte-equivalent to the oracle (built for the nightly -race job)")

		serve      = flag.String("serve", "", "load-test a running tescd daemon at this base URL instead of running experiments")
		serveReqs  = flag.Int("serve-requests", 200, "number of correlate queries in -serve mode")
		serveConc  = flag.Int("serve-concurrency", 8, "concurrent clients in -serve mode")
		serveNodes = flag.Int("serve-nodes", 20000, "synthetic graph size in -serve mode")
		serveOcc   = flag.Int("serve-occurrences", 100, "occurrences per synthetic event in -serve mode")
		serveH     = flag.Int("serve-h", 1, "vicinity level in -serve mode")
		serveMeth  = flag.String("serve-method", "importance", "sampling method in -serve mode (batch-bfs | importance | whole-graph | rejection)")
	)
	flag.Parse()

	if *topk {
		var ks []int
		for _, item := range splitList(*topkKs) {
			var k int
			if _, err := fmt.Sscanf(item, "%d", &k); err != nil || k < 1 {
				fmt.Fprintf(os.Stderr, "tescbench: bad -topk-k item %q\n", item)
				os.Exit(2)
			}
			ks = append(ks, k)
		}
		err := runPlanner(plannerConfig{
			Scale:      *topkScale,
			H:          *topkH,
			SampleSize: *sample,
			Ks:         ks,
			Workers:    *workers,
			Seed:       *seed,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *churn {
		err := runChurn(churnConfig{
			Scale:      *churnScale,
			H:          *churnH,
			SampleSize: *sample,
			Batches:    *churnBatches,
			Flips:      *churnFlips,
			Occ:        *churnOcc,
			Region:     *churnRegion,
			Seed:       *seed,
			Fsync:      splitList(*churnFsync),
		}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *soak > 0 {
		if err := runSoak(*soak, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *soakRecover > 0 {
		if err := runSoakRecover(*soakRecover, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *soakReplica > 0 {
		if err := runSoakReplica(*soakReplica, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *overload {
		err := runOverload(overloadConfig{
			FG:     *overloadFG,
			BG:     *overloadBG,
			QPS:    *overloadQPS,
			Burst:  *overloadBurst,
			Rounds: *overloadRounds,
			Nodes:  *overloadNodes,
			Seed:   *seed,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *soakOverload > 0 {
		if err := runSoakOverload(*soakOverload, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	if *soakCluster > 0 {
		if err := runSoakCluster(*soakCluster, *seed, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}

	if *serve != "" {
		err := runServe(serveConfig{
			BaseURL:     *serve,
			Requests:    *serveReqs,
			Concurrency: *serveConc,
			Nodes:       *serveNodes,
			Occurrences: *serveOcc,
			H:           *serveH,
			SampleSize:  *sample,
			Method:      *serveMeth,
			Seed:        *seed,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}

	cfg := bench.Config{
		DBLPScale:       *dblpScale,
		IntrusionNodes:  *intrNodes,
		TwitterScaleExp: *twScaleExp,
		Pairs:           *pairs,
		SampleSize:      *sample,
		Reps:            *reps,
		Seed:            *seed,
		Workers:         *workers,
	}

	if *exp == "all" {
		if err := bench.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tescbench:", err)
			os.Exit(1)
		}
		return
	}
	runner, ok := bench.Registry[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "tescbench: unknown experiment %q (have: %s)\n", *exp, strings.Join(bench.IDs(), ", "))
		os.Exit(2)
	}
	if err := runner(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tescbench:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}
