package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestNodeSetBasic(t *testing.T) {
	s := NewNodeSet(10, []NodeID{3, 1, 3, 7})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", s.Len())
	}
	want := []NodeID{1, 3, 7}
	for i, v := range s.Members() {
		if v != want[i] {
			t.Fatalf("Members = %v, want %v", s.Members(), want)
		}
	}
	for _, v := range want {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if s.Contains(0) || s.Contains(9) || s.Contains(-1) || s.Contains(10) {
		t.Error("Contains returned true for a non-member")
	}
	if s.Universe() != 10 {
		t.Errorf("Universe = %d", s.Universe())
	}
}

func TestNodeSetEmpty(t *testing.T) {
	s := NewNodeSet(5, nil)
	if s.Len() != 0 {
		t.Fatalf("empty set Len = %d", s.Len())
	}
	if s.Contains(0) {
		t.Error("empty set contains 0")
	}
	c := s.Complement()
	if c.Len() != 5 {
		t.Errorf("complement of empty = %d members, want 5", c.Len())
	}
}

func TestNodeSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range member")
		}
	}()
	NewNodeSet(3, []NodeID{5})
}

func TestNodeSetAlgebra(t *testing.T) {
	a := NewNodeSet(10, []NodeID{1, 2, 3, 4})
	b := NewNodeSet(10, []NodeID{3, 4, 5, 6})

	u := a.Union(b)
	if u.Len() != 6 {
		t.Errorf("union len = %d, want 6", u.Len())
	}
	for _, v := range []NodeID{1, 2, 3, 4, 5, 6} {
		if !u.Contains(v) {
			t.Errorf("union missing %d", v)
		}
	}

	i := a.Intersect(b)
	if i.Len() != 2 || !i.Contains(3) || !i.Contains(4) {
		t.Errorf("intersect = %v", i.Members())
	}

	d := a.Difference(b)
	if d.Len() != 2 || !d.Contains(1) || !d.Contains(2) {
		t.Errorf("difference = %v", d.Members())
	}
}

func TestNodeSetUniverseMismatchPanics(t *testing.T) {
	a := NewNodeSet(5, []NodeID{1})
	b := NewNodeSet(6, []NodeID{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for universe mismatch")
		}
	}()
	a.Union(b)
}

func TestNodeSetCountIn(t *testing.T) {
	s := NewNodeSet(10, []NodeID{2, 4, 6})
	if c := s.CountIn([]NodeID{1, 2, 3, 4}); c != 2 {
		t.Errorf("CountIn = %d, want 2", c)
	}
	if c := s.CountIn(nil); c != 0 {
		t.Errorf("CountIn(nil) = %d, want 0", c)
	}
	// duplicates in the probe slice count each time (callers pass
	// distinct BFS-visited nodes).
	if c := s.CountIn([]NodeID{2, 2}); c != 2 {
		t.Errorf("CountIn dup = %d, want 2", c)
	}
}

func TestNodeSetComplement(t *testing.T) {
	s := NewNodeSet(6, []NodeID{0, 2, 4})
	c := s.Complement()
	if c.Len() != 3 {
		t.Fatalf("complement len = %d, want 3", c.Len())
	}
	for _, v := range []NodeID{1, 3, 5} {
		if !c.Contains(v) {
			t.Errorf("complement missing %d", v)
		}
	}
	cc := c.Complement()
	if !cc.Equal(s) {
		t.Error("double complement != original")
	}
}

func TestNodeSetEqual(t *testing.T) {
	a := NewNodeSet(5, []NodeID{1, 2})
	b := NewNodeSet(5, []NodeID{2, 1})
	c := NewNodeSet(5, []NodeID{1, 3})
	d := NewNodeSet(6, []NodeID{1, 2})
	if !a.Equal(b) {
		t.Error("order should not matter")
	}
	if a.Equal(c) {
		t.Error("different members compare equal")
	}
	if a.Equal(d) {
		t.Error("different universes compare equal")
	}
}

// Property: union cardinality follows inclusion–exclusion.
func TestNodeSetInclusionExclusion(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		const n = 64
		rngA := rand.New(rand.NewPCG(seedA, 1))
		rngB := rand.New(rand.NewPCG(seedB, 2))
		var ma, mb []NodeID
		for i := 0; i < 20; i++ {
			ma = append(ma, NodeID(rngA.IntN(n)))
			mb = append(mb, NodeID(rngB.IntN(n)))
		}
		a := NewNodeSet(n, ma)
		b := NewNodeSet(n, mb)
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CountIn over the full universe equals Len.
func TestNodeSetCountInUniverse(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 100
		rng := rand.New(rand.NewPCG(seed, 3))
		var members []NodeID
		for i := 0; i < 30; i++ {
			members = append(members, NodeID(rng.IntN(n)))
		}
		s := NewNodeSet(n, members)
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		return s.CountIn(all) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewNodeSetMatchesSortOracle pins NewNodeSet's bitset scan against
// sort+dedup of the input, across universe sizes around the 64-bit word
// boundaries and member lists with duplicates and the edge IDs 0, 63,
// 64 and n−1.
func TestNewNodeSetMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.IntN(300)
		if trial%5 == 0 {
			n = 64 * (1 + rng.IntN(3)) // exact word multiples
		}
		var members []NodeID
		for i, k := 0, rng.IntN(2*n); i < k; i++ {
			members = append(members, NodeID(rng.IntN(n)))
		}
		for _, edge := range []int{0, 63, 64, n - 1} {
			if edge < n && rng.IntN(2) == 0 {
				members = append(members, NodeID(edge), NodeID(edge))
			}
		}
		if trial%7 == 0 {
			members = nil
		}
		want := slices.Compact(slices.Sorted(slices.Values(members)))
		got := NewNodeSet(n, members).Members()
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d members=%v: got %v, want %v", n, members, got, want)
		}
		if len(want) == 0 && got != nil {
			t.Fatalf("n=%d: empty set has non-nil members %v", n, got)
		}
	}
}
