package graph_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// sameView reports the first field in which the live extractor's view and
// the frozen replica's differ: CSR offsets and neighbours, labels,
// identifiers, Original, root, radius and the raw-code bytes.
func sameView(live, ref *graph.View) string {
	lo, ln := live.CSR()
	ro, rn := ref.CSR()
	switch {
	case !slices.Equal(lo, ro):
		return fmt.Sprintf("offsets %v, want %v", lo, ro)
	case !slices.Equal(ln, rn):
		return fmt.Sprintf("neighbours %v, want %v", ln, rn)
	case !slices.Equal(live.Labels, ref.Labels):
		return "labels differ"
	case (live.IDs == nil) != (ref.IDs == nil) || !slices.Equal(live.IDs, ref.IDs):
		return fmt.Sprintf("IDs %v, want %v", live.IDs, ref.IDs)
	case !slices.Equal(live.Original, ref.Original):
		return fmt.Sprintf("Original %v, want %v", live.Original, ref.Original)
	case live.Root != ref.Root || live.Radius != ref.Radius:
		return "root or radius differ"
	case !bytes.Equal(live.RawCode().Bytes, ref.RawCode().Bytes):
		return "RawCode bytes differ"
	}
	return ""
}

// replicaHosts are the differential hosts: the four sweep families at test
// size plus a disconnected host (isolated node, path and cycle components).
func replicaHosts() map[string]*graph.Labeled {
	alphabet := []graph.Label{"a", "b", "c"}
	b := graph.NewBuilder(12)
	b.AddGraphAt(graph.Cycle(5), 1)
	b.AddGraphAt(graph.Path(6), 6)
	return map[string]*graph.Labeled{
		"cycle":        graph.RandomLabels(graph.Cycle(40), alphabet, 1),
		"grid":         graph.RandomLabels(graph.Grid(7, 9), alphabet, 2),
		"pyramid":      graph.RandomLabels(tree.NewPyramid(3).G, alphabet, 3),
		"random":       graph.RandomLabels(graph.Random(80, 0.06, 4), alphabet, 4),
		"disconnected": graph.RandomLabels(b.Build(), alphabet, 5),
	}
}

// idsFor gives host l distinct, non-identity identifiers.
func idsFor(l *graph.Labeled) []int {
	ids := make([]int, l.N())
	for i := range ids {
		ids[i] = 7*(l.N()-i) + 3
	}
	return ids
}

// checkAgainstReplica compares x (already bound to l, carrying ids when
// non-nil) with a fresh replica on every node at every radius.
func checkAgainstReplica(t *testing.T, name string, x *graph.ViewExtractor, l *graph.Labeled, ids []int) {
	t.Helper()
	ref := graph.NewReplicaExtractor(l, ids)
	for _, radius := range []int{0, 1, 2, 3, 8} {
		for v := 0; v < l.N(); v++ {
			if diff := sameView(x.At(v, radius), ref.At(v, radius)); diff != "" {
				t.Fatalf("%s: node %d radius %d: %s", name, v, radius, diff)
			}
		}
	}
}

// TestExtractorMatchesReplica pins the live extractor to the frozen replica
// of the sorting, two-array extractor it replaced: every field of every
// view, with and without identifiers, on static and dynamic hosts, and
// across Reset onto smaller and larger hosts.
func TestExtractorMatchesReplica(t *testing.T) {
	hosts := replicaHosts()
	for name, l := range hosts {
		checkAgainstReplica(t, name, graph.NewViewExtractor(l), l, nil)
		ids := idsFor(l)
		checkAgainstReplica(t, name+"/ids", graph.NewInstanceViewExtractor(graph.NewInstance(l, ids)), l, ids)
	}

	dyn := hosts["random"].Clone()
	for i, e := range [][2]int{{0, 1}, {2, 3}, {5, 40}, {7, 70}, {0, 79}, {11, 12}} {
		dyn.G.ApplyUpdate(e[0], e[1], i%3 != 2)
		if nb := dyn.G.Neighbors(e[0]); len(nb) > 0 {
			dyn.G.ApplyUpdate(e[0], int(nb[0]), false)
		}
	}
	if !dyn.G.Dynamic() {
		t.Fatal("host did not enter dynamic mode")
	}
	checkAgainstReplica(t, "dynamic", graph.NewViewExtractor(dyn), dyn, nil)

	// Reset from the grid (63 nodes) onto a smaller host, then a larger one.
	x := graph.NewViewExtractor(hosts["grid"])
	for _, name := range []string{"disconnected", "pyramid"} {
		l := hosts[name]
		x.Reset(l)
		checkAgainstReplica(t, "reset/"+name, x, l, nil)
		ids := idsFor(l)
		x.ResetInstance(graph.NewInstance(l, ids))
		checkAgainstReplica(t, "reset/"+name+"/ids", x, l, ids)
	}
}

// BenchmarkExtractReplica times one view extraction per op, every node in
// index order as the Sequential backend visits them, on the sweep hosts at
// their sweep horizons: the live extractor against the frozen replica in
// the same run. CI gates the pyramid ratio (the family where the replica's
// per-row sort dominates) and the live arms' 0 allocs/op.
func BenchmarkExtractReplica(b *testing.B) {
	const n = 100_000
	hosts := []struct {
		name string
		l    *graph.Labeled
		t    int
	}{
		{"cycle", graph.UniformlyLabeled(graph.Cycle(n), "c"), 8},
		{"grid", graph.UniformlyLabeled(graph.Grid(316, 316), "g"), 3},
		{"pyramid", graph.UniformlyLabeled(tree.NewPyramid(8).G, "p"), 3},
		{"random", graph.UniformlyLabeled(graph.Random(n, 4.0/n, 1), "r"), 2},
	}
	for _, h := range hosts {
		arms := []struct {
			name string
			at   func(v, t int) *graph.View
		}{
			{"live", graph.NewViewExtractor(h.l).At},
			{"replica", graph.NewReplicaExtractor(h.l, nil).At},
		}
		for _, arm := range arms {
			b.Run(h.name+"/"+arm.name, func(b *testing.B) {
				k := h.l.N()
				for v := 0; v < k; v++ {
					arm.at(v, h.t) // grow the output buffers to the largest ball
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arm.at(i%k, h.t)
				}
			})
		}
	}
}
