package graph

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"weak"
)

// flipEdges stages n random edge flips on d (insert when absent, delete
// when present), so Compact yields a genuinely different successor.
func flipEdges(t *testing.T, d *Delta, n int, rng *rand.Rand) {
	t.Helper()
	nodes := d.Base().NumNodes()
	for i := 0; i < n; i++ {
		u, v := NodeID(rng.IntN(nodes)), NodeID(rng.IntN(nodes))
		if u == v {
			continue
		}
		var err error
		if d.HasEdge(u, v) {
			_, err = d.DeleteEdge(u, v)
		} else {
			_, err = d.InsertEdge(u, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func idleCount(g *Graph) int {
	g.engMu.Lock()
	defer g.engMu.Unlock()
	return len(g.idle)
}

// TestEnginePool checks the graph-owned engine free list: engines round
// trip, foreign engines are dropped, the idle cap holds, a Compact
// successor inherits only idle engines and only once queried, an
// inherited engine traverses exactly like a fresh one, and idle engines
// drain over collections.
func TestEnginePool(t *testing.T) {
	t.Run("round trip", func(t *testing.T) {
		g := randomTestGraph(t, 50, 100, false, 2)
		e := g.AcquireBFS()
		if e.Graph() != g {
			t.Fatal("acquired engine bound to the wrong graph")
		}
		g.ReleaseBFS(e)
		if again := g.AcquireBFS(); again != e {
			t.Fatal("released engine was not reused")
		}
	})

	t.Run("foreign engine dropped", func(t *testing.T) {
		g1 := randomTestGraph(t, 50, 100, false, 2)
		g2 := randomTestGraph(t, 50, 100, false, 3)
		foreign := NewBFS(g2)
		g1.ReleaseBFS(foreign)
		g1.ReleaseBFS(nil)
		if n := idleCount(g1); n != 0 {
			t.Fatalf("%d idle engines after releasing only foreign/nil ones", n)
		}
		if got := g1.AcquireBFS(); got == foreign || got.Graph() != g1 {
			t.Fatal("foreign engine recycled")
		}
	})

	t.Run("idle cap", func(t *testing.T) {
		g := randomTestGraph(t, 50, 100, false, 4)
		held := make([]*BFS, maxIdle()+3)
		for i := range held {
			held[i] = g.AcquireBFS()
		}
		for _, e := range held {
			g.ReleaseBFS(e)
		}
		if n := idleCount(g); n != maxIdle() {
			t.Fatalf("%d idle engines, cap %d", n, maxIdle())
		}
	})

	t.Run("successor inherits idle engines on demand", func(t *testing.T) {
		g := randomTestGraph(t, 80, 200, false, 5)
		idle1, idle2, busy := g.AcquireBFS(), g.AcquireBFS(), g.AcquireBFS()
		g.ReleaseBFS(idle1)
		g.ReleaseBFS(idle2)
		d := NewDelta(g)
		flipEdges(t, d, 10, rand.New(rand.NewPCG(5, 5)))
		next := d.Compact()
		if next == g {
			t.Fatal("delta produced no successor")
		}
		// Until the successor is queried the base keeps its engines,
		// so an abandoned successor costs the base nothing.
		if n := idleCount(g); n != 2 {
			t.Fatalf("base lost its idle engines at Compact (%d left)", n)
		}
		for _, want := range []*BFS{idle2, idle1} {
			if e := next.AcquireBFS(); e != want || e.Graph() != next {
				t.Fatal("successor did not inherit the base's idle engine, rebound")
			}
		}
		if idleCount(g) != 0 {
			t.Fatal("inherited engines stayed on the base's list")
		}
		if busy.Graph() != g {
			t.Fatal("an engine in use was rebound")
		}
		// A miss while the base still has an engine in use allocates,
		// but keeps the link: that engine will come back.
		if e := next.AcquireBFS(); e == busy || e.Graph() != next {
			t.Fatal("miss did not allocate a fresh engine")
		}
		next.ReleaseBFS(busy) // bound to the base: dropped
		if n := idleCount(next); n != 0 {
			t.Fatalf("successor accepted the base's engine (%d idle)", n)
		}
		g.ReleaseBFS(busy)
		if n := idleCount(g); n != 1 {
			t.Fatalf("base did not take its own engine back (%d idle)", n)
		}
		// An engine released to the base after the successor went live
		// is inherited too.
		if e := next.AcquireBFS(); e != busy || e.Graph() != next {
			t.Fatal("successor did not inherit an engine released late to the base")
		}
		if e := next.AcquireBFS(); e.Graph() != next {
			t.Fatal("fresh engine bound to the wrong graph")
		}
	})

	t.Run("inherited engine traverses like a fresh one", func(t *testing.T) {
		for _, directed := range []bool{false, true} {
			g := randomTestGraph(t, 300, 700, directed, 6)
			rng := rand.New(rand.NewPCG(6, 6))
			// Warm the engine on the base so its stamps and buffers
			// hold state from the superseded snapshot.
			e := g.AcquireBFS()
			for i := 0; i < 300; i++ {
				e.Collect([]NodeID{NodeID(rng.IntN(300))}, 1+rng.IntN(3))
				e.Run([]NodeID{NodeID(rng.IntN(300))}, 2, func(NodeID, int) {})
			}
			g.ReleaseBFS(e)
			d := NewDelta(g)
			flipEdges(t, d, 60, rng)
			next := d.Compact()
			if got := next.AcquireBFS(); got != e {
				t.Fatal("successor did not hand out the inherited engine")
			}
			fresh := NewBFS(next)
			for i := 0; i < 200; i++ {
				src := []NodeID{NodeID(rng.IntN(300)), NodeID(rng.IntN(300))}
				h := rng.IntN(4)
				want := slices.Clone(fresh.Collect(src, h))
				if got := e.Collect(src, h); !slices.Equal(got, want) {
					t.Fatalf("directed=%v: inherited Collect(%v, %d) = %v, fresh %v", directed, src, h, got, want)
				}
				var gotRun, wantRun []NodeID
				e.Run(src, h, func(v NodeID, _ int) { gotRun = append(gotRun, v) })
				fresh.Run(src, h, func(v NodeID, _ int) { wantRun = append(wantRun, v) })
				if !slices.Equal(gotRun, wantRun) {
					t.Fatalf("directed=%v: inherited Run diverges from fresh", directed)
				}
			}
		}
	})

	t.Run("engines idle for two sweeps drain", func(t *testing.T) {
		g := randomTestGraph(t, 50, 100, false, 8)
		e1, e2, e3 := g.AcquireBFS(), g.AcquireBFS(), g.AcquireBFS()
		g.ReleaseBFS(e1)
		g.ReleaseBFS(e2)
		g.ReleaseBFS(e3)
		// Take g out of the drain set so that collections triggered
		// elsewhere cannot sweep it between the steps below.
		drain.mu.Lock()
		delete(drain.graphs, weak.Make(g))
		drain.mu.Unlock()
		steps := []struct {
			take bool // take and return the top engine before sweeping
			idle int  // idle engines left by the sweep
		}{
			{false, 3}, // released since the last sweep: all kept
			{true, 3},  // e3 taken: e1, e2 are one cycle cold
			{false, 1}, // e1, e2 cold for two cycles: dropped
			{false, 0}, // e3 cold for two cycles too
		}
		for i, st := range steps {
			if st.take {
				g.ReleaseBFS(g.AcquireBFS())
			}
			empty := g.trimIdle()
			if n := idleCount(g); n != st.idle || empty != (n == 0) {
				t.Fatalf("sweep %d: %d idle engines (empty=%v), want %d", i+1, n, empty, st.idle)
			}
			if i == 2 && g.idle[0] != e3 {
				t.Fatal("the engine taken between sweeps was dropped")
			}
		}
	})

	t.Run("garbage collections drain an idle graph", func(t *testing.T) {
		g := randomTestGraph(t, 50, 100, false, 9)
		g.ReleaseBFS(g.AcquireBFS())
		for gc := 0; gc < 50 && idleCount(g) > 0; gc++ {
			runtime.GC()
			time.Sleep(time.Millisecond) // let the finalizer goroutine sweep
		}
		if n := idleCount(g); n != 0 {
			t.Fatalf("%d idle engines survived 50 collections", n)
		}
		drain.mu.Lock()
		_, listed := drain.graphs[weak.Make(g)]
		drain.mu.Unlock()
		if listed {
			t.Fatal("a drained graph stayed in the drain set")
		}
	})

	t.Run("idle engines do not keep a dropped graph alive", func(t *testing.T) {
		g := randomTestGraph(t, 50, 100, false, 10)
		g.ReleaseBFS(g.AcquireBFS())
		wp := weak.Make(g)
		g = nil
		// One collection: the sweeps would need three to empty the list.
		runtime.GC()
		if wp.Value() != nil {
			t.Fatal("a graph referenced only by its idle engines survived a collection")
		}
	})

	t.Run("a graph keeps at most one predecessor alive", func(t *testing.T) {
		g0 := randomTestGraph(t, 50, 100, false, 11)
		g0.ReleaseBFS(g0.AcquireBFS())
		d := NewDelta(g0)
		rng := rand.New(rand.NewPCG(11, 11))
		flipEdges(t, d, 5, rng)
		g1 := d.Compact()
		flipEdges(t, d, 5, rng)
		g2 := d.Compact()
		w0, w1 := weak.Make(g0), weak.Make(g1)
		g0, g1 = nil, nil
		runtime.GC()
		if w0.Value() != nil {
			t.Fatal("a snapshot two versions back survived a collection")
		}
		if w1.Value() == nil {
			t.Fatal("the successor let its predecessor go before inheriting from it")
		}
		// Nothing left to inherit: the predecessor is released.
		g2.ReleaseBFS(g2.AcquireBFS())
		runtime.GC()
		if w1.Value() != nil {
			t.Fatal("an exhausted predecessor survived a collection")
		}
		runtime.KeepAlive(g2)
	})

	t.Run("concurrent acquire across versions", func(t *testing.T) {
		g := randomTestGraph(t, 200, 600, false, 7)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					e := g.AcquireBFS()
					e.Collect([]NodeID{NodeID((w*200 + i) % 200)}, 2)
					g.ReleaseBFS(e)
				}
			}(w)
		}
		d := NewDelta(g)
		rng := rand.New(rand.NewPCG(7, 7))
		for i := 0; i < 5; i++ {
			flipEdges(t, d, 5, rng)
			next := d.Compact()
			wg.Add(1)
			go func() { // inherits from the previous version while it is in use
				defer wg.Done()
				for j := 0; j < 100; j++ {
					e := next.AcquireBFS()
					if e.Graph() != next {
						t.Error("successor handed out an engine bound to another graph")
						return
					}
					e.Collect([]NodeID{NodeID(j % 200)}, 2)
					next.ReleaseBFS(e)
				}
			}()
		}
		wg.Wait()
	})
}
