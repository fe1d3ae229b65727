package graph

import (
	"runtime"
	"sync"
	"weak"
)

// maxIdle caps a graph's free list: one sampler engine plus one
// density (or memo) engine per goroutine that can run at once.
func maxIdle() int { return 2 * runtime.GOMAXPROCS(0) }

// AcquireBFS returns a BFS engine bound to g: an idle one when the
// graph has one, else one inherited from the graph Delta.Compact built
// g from, else a new one. Every engine owns O(|V|) scratch, so reusing
// warm engines spares each query that allocation. Return the engine
// with ReleaseBFS when the traversal burst is done; an engine that is
// never released is simply collected. Safe for concurrent use.
//
// Idle engines drain like a sync.Pool's: an engine that sits idle
// through two whole garbage collections is dropped, so the memory a
// burst of concurrent queries allocated is given back once the burst
// is over.
func (g *Graph) AcquireBFS() *BFS {
	g.engMu.Lock()
	g.busy++
	if n := len(g.idle); n > 0 {
		b := g.idle[n-1]
		g.idle[n-1] = nil
		g.idle = g.idle[:n-1]
		g.low = min(g.low, n-1)
		g.engMu.Unlock()
		return b
	}
	// The cap is refreshed only here, off the warm path, so the round
	// trip of a warm engine stays two uncontended lock pairs.
	g.idleCap = maxIdle()
	g.engMu.Unlock()
	// A successor takes its predecessor's idle engines only when it is
	// queried: until then they keep serving the predecessor, which
	// stays the published snapshot while a mutation is being logged,
	// and which keeps them if the successor is abandoned.
	if p := g.pred.Load(); p != nil {
		b, more := p.inherit()
		if b != nil && b.Rebind(g) == nil {
			return b
		}
		if !more {
			g.pred.Store(nil) // p has nothing left to give: let it go
		}
	}
	return NewBFS(g)
}

// inherit pops one of g's idle engines for g's successor. more reports
// whether g may have engines to give later: idle ones, or ones in use
// that will come back.
func (g *Graph) inherit() (b *BFS, more bool) {
	g.engMu.Lock()
	defer g.engMu.Unlock()
	n := len(g.idle)
	if n == 0 {
		return nil, g.busy > 0
	}
	b = g.idle[n-1]
	g.idle[n-1] = nil
	g.idle = g.idle[:n-1]
	g.low = min(g.low, n-1)
	return b, true
}

// ReleaseBFS returns an engine to g's free list. An engine bound to a
// different graph is dropped: a caller may hold an engine across a
// mutation, and its traversals must never run over another snapshot.
// An engine released past the cap (maxIdle as of the graph's last
// miss) is dropped too.
func (g *Graph) ReleaseBFS(b *BFS) {
	if b == nil || b.g != g {
		return
	}
	g.engMu.Lock()
	g.busy--
	if len(g.idle) >= g.idleCap {
		g.engMu.Unlock()
		return
	}
	g.idle = append(g.idle, b)
	enlist := !g.enlisted
	g.enlisted = true
	g.engMu.Unlock()
	if enlist {
		drain.add(g)
	}
}

// trimIdle is g's share of a drain sweep, run once per garbage
// collection. The free list is a stack, so its bottom low entries were
// not taken since the last sweep, and the bottom cold entries were not
// taken in the cycle before that either: those are dropped. It reports
// whether the list is now empty.
func (g *Graph) trimIdle() (empty bool) {
	g.engMu.Lock()
	defer g.engMu.Unlock()
	drop := min(g.low, g.cold)
	n := copy(g.idle, g.idle[drop:])
	clear(g.idle[n:])
	g.idle = g.idle[:n]
	g.cold = g.low - drop
	g.low = n
	if n == 0 {
		g.enlisted = false
	}
	return n == 0
}

// drain is the set of graphs whose free lists hold engines. It points
// at them weakly: a graph nobody else references is collected together
// with its idle engines, whatever the sweeps would have done.
var drain drainSet

type drainSet struct {
	mu     sync.Mutex
	graphs map[weak.Pointer[Graph]]struct{}
}

func (s *drainSet) add(g *Graph) {
	s.mu.Lock()
	if s.graphs == nil {
		s.graphs = make(map[weak.Pointer[Graph]]struct{})
	}
	s.graphs[weak.Make(g)] = struct{}{}
	s.mu.Unlock()
}

// sweep trims every enlisted graph and forgets the ones left empty or
// collected.
func (s *drainSet) sweep() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for wp := range s.graphs {
		if g := wp.Value(); g == nil || g.trimIdle() {
			delete(s.graphs, wp)
		}
	}
}

// gcTick is a throwaway object whose finalizer runs after the garbage
// collection that found it unreachable; it sweeps the free lists and
// arms the next tick. It holds a pointer so that it never shares a
// tiny-allocator block, whose lifetime would delay the finalizer.
type gcTick struct{ _ *byte }

func armDrain() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		drain.sweep()
		armDrain()
	})
}

func init() { armDrain() }
