package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
)

func bigProblem(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 1))
	g := graphgen.ErdosRenyi(500, 1500, rng)
	occ := func(lo, n int) *graph.NodeSet {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(lo + i)
		}
		return graph.NewNodeSet(500, ids)
	}
	return MustNewProblem(g, occ(0, 20), occ(100, 20))
}

func allNodes(n int) []graph.NodeID {
	rs := make([]graph.NodeID, n)
	for i := range rs {
		rs[i] = graph.NodeID(i)
	}
	return rs
}

// A test whose context is dead before it starts reports ErrCanceled
// with the context's cause wrapped, and does no density work.
func TestTestCanceledBeforeStart(t *testing.T) {
	p := bigProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions(2)
	opts.SampleSize = 100
	opts.Ctx = ctx
	_, err := Test(p, opts)
	if err == nil {
		t.Fatal("pre-canceled Test returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want errors.Is(ErrCanceled)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context cause wrapped", err)
	}
}

// An expired deadline surfaces as DeadlineExceeded through the same
// wrap, so callers can map it to a timeout rather than an abort.
func TestTestDeadlineExceeded(t *testing.T) {
	p := bigProblem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts := DefaultOptions(2)
	opts.SampleSize = 100
	opts.Ctx = ctx
	_, err := Test(p, opts)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// The sequential ctx-checked path matches the unchecked one.
func TestEvalAllCtxMatchesEvalAll(t *testing.T) {
	p := bigProblem(t)
	rs := allNodes(500)

	seq := NewDensityEvaluator(p, 2)
	wantSA, wantSB, wantDS := seq.EvalAll(rs)

	chk := NewDensityEvaluator(p, 2)
	gotSA, gotSB, gotDS, err := chk.evalAllCtx(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if gotSA[i] != wantSA[i] || gotSB[i] != wantSB[i] || gotDS[i] != wantDS[i] {
			t.Fatalf("node %d: ctx path diverged from EvalAll", i)
		}
	}
}

// doneAfter is a context that reports done from its checks-th Done
// call on, so a test can cancel a pass at a chosen check.
type doneAfter struct {
	context.Context
	checks int
	closed chan struct{}
}

func (c *doneAfter) Done() <-chan struct{} {
	if c.checks--; c.checks <= 0 {
		return c.closed
	}
	return nil
}

func (c *doneAfter) Err() error { return context.Canceled }

// A pass canceled mid-way stops at the next 64-node check and reports
// the cause.
func TestEvalAllCtxCancelsBetweenChunks(t *testing.T) {
	p := bigProblem(t)
	rs := allNodes(500)
	closed := make(chan struct{})
	close(closed)
	ctx := &doneAfter{Context: context.Background(), checks: 3, closed: closed}
	ev := NewDensityEvaluator(p, 2)
	if _, _, _, err := ev.evalAllCtx(ctx, rs); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if want := int64(2 * cancelChunk); ev.BFSCount != want {
		t.Fatalf("canceled pass ran %d traversals, want %d (two chunks)", ev.BFSCount, want)
	}
}

// eventPassProblem has enough event nodes for several cancellation
// chunks of the event-centric density pass.
func eventPassProblem(t *testing.T) (*Problem, *vicinity.Index) {
	t.Helper()
	p, idx := erProblem(t, 2000, 5000, 150, 150, 95)
	if n := len(p.EventNodes()); n < 4*cancelChunk {
		t.Fatalf("%d event nodes, want at least %d", n, 4*cancelChunk)
	}
	return p, idx
}

// An event-centric pass canceled mid-way stops at the next check,
// cancelChunk event nodes on, and leaves the engine's slot map zeroed.
func TestEventPassCancelsBetweenChunks(t *testing.T) {
	p, idx := eventPassProblem(t)
	off := 0 // no memo: every event node is one traversal
	sample, err := (&ImportanceSampler{Index: idx, memoCap: &off}).sample(p, 2, 100, rand.New(rand.NewPCG(96, 1)), true)
	if err != nil {
		t.Fatal(err)
	}
	defer sample.memo.release()
	closed := make(chan struct{})
	close(closed)
	ctx := &doneAfter{Context: context.Background(), checks: 3, closed: closed}
	bfs := graph.NewBFS(p.G)
	_, _, _, traversals, err := evalByEvents(ctx, p, sample.memo, sample.Nodes, bfs)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if want := int64(2 * cancelChunk); traversals != want {
		t.Fatalf("canceled pass ran %d traversals, want %d (two chunks)", traversals, want)
	}
	for _, r := range sample.Nodes {
		if s := bfs.Slots()[r]; s != 0 {
			t.Fatalf("slot of reference node %d left at %d", r, s)
		}
	}
}

// Test canceled during the event-centric pass reports ErrCanceled with
// the cause wrapped, and gives back both the engine it took from the
// graph and the sampler's memo.
func TestTestCanceledDuringEventPass(t *testing.T) {
	p, idx := eventPassProblem(t)
	// No collection may drain the warm engines while the test watches.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e1, e2 := p.G.AcquireBFS(), p.G.AcquireBFS()
	before := map[*graph.BFS][]uint32{e1: slices.Clone(e1.Slots()), e2: slices.Clone(e2.Slots())}
	p.G.ReleaseBFS(e1)
	p.G.ReleaseBFS(e2)

	var memo *vicinityMemo
	s := &ImportanceSampler{Index: idx, handOffs: func(m *vicinityMemo) { memo = m }}
	closed := make(chan struct{})
	close(closed)
	opts := DefaultOptions(2)
	opts.SampleSize = 600
	opts.Sampler = s
	if res, err := Test(p, opts); err != nil || res.DensityBFS >= int64(res.N) {
		t.Fatalf("uncanceled: DensityBFS %d for N %d (err %v), want the event pass", res.DensityBFS, res.N, err)
	}
	// Checks 1 and 2 bracket the sampler; check 3 opens the event
	// pass and check 4 ends its first chunk.
	opts.Ctx = &doneAfter{Context: context.Background(), checks: 4, closed: closed}
	_, err := Test(p, opts)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if memo == nil {
		t.Fatal("the sampler handed Test no memo")
	}
	if memo.nodes != nil || memo.sizes != nil {
		t.Fatal("Test did not release the memo")
	}
	a1, a2 := p.G.AcquireBFS(), p.G.AcquireBFS()
	defer p.G.ReleaseBFS(a1)
	defer p.G.ReleaseBFS(a2)
	if !(a1 == e1 && a2 == e2 || a1 == e2 && a2 == e1) {
		t.Fatal("Test did not give its engines back to the graph")
	}
	// Entries the pass wrote are zero again; the rest keep their stamps.
	for _, e := range []*graph.BFS{a1, a2} {
		for v, s := range e.Slots() {
			if s != 0 && s != before[e][v] {
				t.Fatalf("an engine went back with slot %d of node %d set", s, v)
			}
		}
	}
}
