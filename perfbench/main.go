// Command perfbench is the repository benchmark. It drives an
// in-process tescd (internal/server) through the typed client over a
// loopback listener with closed-loop clients, checks the answers
// against the library, and prints every metric by name and unit; the
// last line of standard output is one JSON object. See README.md.
//
//	go run . --workload correlate --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "correlate", "workload: correlate, screen or churn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: graph, events, flips and request seeds derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured traffic length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for data dirs and trace files (created, inside the checkout)")
	root := flag.String("root", ".", "repository root, for the environment stamp's source hash")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := cycles[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	if err := run(cfg, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, root string) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	defer cleanData(cfg.outDir)
	env := stamp(cfg, root)
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)

	w, err := newWorld(cfg.seed)
	if err != nil {
		return err
	}
	fmt.Printf("# graph %d nodes %d edges; %d planted pairs x %d occurrences; vocabulary %d events\n",
		w.g.NumNodes(), w.g.NumEdges(), plantedPairs, plantedOcc, w.vocab.NumEvents())
	ctx := context.Background()
	var res result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, w, env)
	} else {
		res, err = runUntraced(ctx, cfg, w)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("# %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cleanData removes the run's durable data directories.
func cleanData(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("data-%d-*", os.Getpid())))
	for _, m := range matches {
		os.RemoveAll(m)
	}
}

// stamp records what the numbers were measured on and with.
func stamp(cfg config, root string) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
		"source":     sourceHash(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// a checkout without .git reports "none" and relies on the source hash.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the module's Go sources and go.mod
// files, in path order: it identifies the measured program where no
// commit is available.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
