package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func viewsIdentical(a, b *View) bool {
	if !a.Labeled.Equal(b.Labeled) || a.Root != b.Root || a.Radius != b.Radius {
		return false
	}
	if (a.IDs == nil) != (b.IDs == nil) || len(a.Original) != len(b.Original) {
		return false
	}
	for i := range a.Original {
		if a.Original[i] != b.Original[i] {
			return false
		}
	}
	if a.IDs != nil {
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] {
				return false
			}
		}
	}
	return true
}

// The extractor must reproduce the one-shot helpers field for field: same
// node ordering (BFS discovery), same structure, labels, IDs and Original.
func TestViewExtractorMatchesViewOf(t *testing.T) {
	hosts := map[string]*Graph{
		"path9":    Path(9),
		"cycle12":  Cycle(12),
		"star8":    Star(8),
		"grid4x5":  Grid(4, 5),
		"tree4":    CompleteBinaryTree(4),
		"random25": Random(25, 0.2, 7),
		"single":   New(1),
	}
	for name, g := range hosts {
		l := RandomLabels(g, []Label{"a", "b", "c"}, 3)
		ids := make([]int, g.N())
		for i := range ids {
			ids[i] = 2*i + 5
		}
		in := NewInstance(l, ids)
		xObl := NewViewExtractor(l)
		xIns := NewInstanceViewExtractor(in)
		for _, radius := range []int{0, 1, 2, 3} {
			for v := 0; v < g.N(); v++ {
				if got, want := xObl.At(v, radius), ObliviousViewOf(l, v, radius); !viewsIdentical(got, want) {
					t.Fatalf("%s: oblivious view of node %d at radius %d diverges:\n got %v\nwant %v", name, v, radius, got, want)
				}
				if got, want := xIns.At(v, radius), ViewOf(in, v, radius); !viewsIdentical(got, want) {
					t.Fatalf("%s: instance view of node %d at radius %d diverges", name, v, radius)
				}
			}
		}
	}
}

func TestViewExtractorQuick(t *testing.T) {
	property := func(seed int64, tRaw uint8) bool {
		n := 2 + int(seed%29+29)%29
		radius := int(tRaw % 4)
		l := RandomLabels(Random(n, 0.25, seed), []Label{"x", "y"}, seed+1)
		x := NewViewExtractor(l)
		for v := 0; v < n; v++ {
			if !viewsIdentical(x.At(v, radius), ObliviousViewOf(l, v, radius)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Successive calls reuse the same buffers; each call must still be internally
// consistent (codes equal to the fresh extraction at the time of the call).
func TestViewExtractorReuseConsistency(t *testing.T) {
	l := UniformlyLabeled(Grid(5, 5), "g")
	x := NewViewExtractor(l)
	for v := 0; v < l.N(); v++ {
		got := x.At(v, 2).ObliviousCode()
		want := ObliviousViewOf(l, v, 2).ObliviousCode()
		if got != want {
			t.Fatalf("node %d: code diverges after buffer reuse", v)
		}
	}
}

// TestViewExtractorReset pins the rebind contract: after Reset (plain or
// instance-carrying) the extractor must reproduce fresh-extractor views
// exactly — across hosts of growing and shrinking sizes, so both the
// buffer-reuse and the regrow arms are exercised.
func TestViewExtractorReset(t *testing.T) {
	hosts := []*Labeled{
		UniformlyLabeled(Grid(4, 4), "g"),
		RandomLabels(Cycle(40), []Label{"a", "b"}, 1),
		RandomLabels(Random(9, 0.3, 2), []Label{"x"}, 3),
	}
	x := NewViewExtractor(hosts[0])
	for round := 0; round < 2; round++ {
		for _, l := range hosts {
			x.Reset(l)
			for v := 0; v < l.N(); v++ {
				if !viewsIdentical(x.At(v, 2), ObliviousViewOf(l, v, 2)) {
					t.Fatalf("round %d: reset extractor diverges on host %v node %d", round, l, v)
				}
			}
		}
	}
	ids := make([]int, hosts[1].N())
	for i := range ids {
		ids[i] = 100 + 3*i
	}
	in := NewInstance(hosts[1], ids)
	x.ResetInstance(in)
	for v := 0; v < in.N(); v++ {
		got, want := x.At(v, 2), ViewOf(in, v, 2)
		if !viewsIdentical(got, want) || got.Code() != want.Code() {
			t.Fatalf("ResetInstance extractor diverges on node %d", v)
		}
	}
}

// TestViewExtractorMarkWrap puts the mark base just below the point where
// base+n would overflow uint32 and extracts across it: the clear-and-restart
// must keep every view exact, before and after, including marks left by the
// extractions just before the clear. It then covers a wrap on a host smaller
// than the array's capacity: marks a larger host left in the tail that Reset
// hid must not survive the restart, or growing back over them on the next
// Reset would read them as ball members.
func TestViewExtractorMarkWrap(t *testing.T) {
	l := RandomLabels(Grid(5, 5), []Label{"a", "b"}, 1)
	x := NewViewExtractor(l)
	x.At(12, 2) // leave marks from an ordinary extraction
	start := uint32(math.MaxUint32) - uint32(l.N()) - 30
	x.base = start
	wrapped := false
	for round := 0; round < 3; round++ {
		for v := 0; v < l.N(); v++ {
			if !viewsIdentical(x.At(v, 2), ObliviousViewOf(l, v, 2)) {
				t.Fatalf("round %d node %d: view diverges across the mark wrap (base %d)", round, v, x.base)
			}
			if x.base < start {
				wrapped = true
			}
		}
	}
	if !wrapped {
		t.Fatalf("base never wrapped: %d", x.base)
	}

	// Marks on the large host's tail, then a wrap on the small host two
	// extractions later, so base restarts low and the large host's next
	// extraction hands out the very values the stale tail marks hold.
	large := RandomLabels(Grid(8, 8), []Label{"a", "b"}, 2)
	small := RandomLabels(Cycle(6), []Label{"a", "b"}, 3)
	x = NewViewExtractor(large)
	x.At(27, 2) // an interior node: its whole ball lies past index 6
	x.Reset(small)
	x.base = uint32(math.MaxUint32) - uint32(small.N()) - 2
	for v := 0; v < 2; v++ {
		if !viewsIdentical(x.At(v, 1), ObliviousViewOf(small, v, 1)) {
			t.Fatalf("small host node %d: view diverges across the mark wrap", v)
		}
	}
	if x.base > uint32(math.MaxUint32)/2 {
		t.Fatalf("base never wrapped on the small host: %d", x.base)
	}
	x.Reset(large)
	order := []int{27} // the node whose stale marks collide, then every node
	for v := 0; v < large.N(); v++ {
		order = append(order, v)
	}
	for _, v := range order {
		if !viewsIdentical(x.At(v, 2), ObliviousViewOf(large, v, 2)) {
			t.Fatalf("large host node %d after wrap and regrow: view diverges", v)
		}
	}
}
