package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
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
