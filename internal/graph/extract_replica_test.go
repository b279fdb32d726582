package graph

import "slices"

// ReplicaExtractor is a frozen copy of ViewExtractor.At as it stood before
// the single-mark, sort-free rewrite: an epoch-stamped BFS with frontier
// queues, then a second pass over every ball row, filtered by stamp and
// sorted per row. It is the reference arm of BenchmarkExtractReplica (the
// same-artifact gate on extraction speed) and the oracle of
// TestExtractorMatchesReplica. Do not optimise it.
//
// It is exported only inside the package's test build, so the external test
// package (which may import tree for the pyramid host) can reach it.
type ReplicaExtractor struct {
	l   *Labeled
	ids []int

	stamp     []int
	viewIndex []int32
	epoch     int
	ball      []int
	frontier  []int
	next      []int

	viewOffsets []int32
	viewNbrs    []int32
	labels      []Label
	outIDs      []int
	orig        []int

	g       Graph
	labeled Labeled
	view    View
	code    *CodeWorkspace
}

// NewReplicaExtractor returns a replica bound to l, carrying identifiers
// when ids is non-nil.
func NewReplicaExtractor(l *Labeled, ids []int) *ReplicaExtractor {
	n := l.N()
	return &ReplicaExtractor{
		l:         l,
		ids:       ids,
		stamp:     make([]int, n),
		viewIndex: make([]int32, n),
		code:      NewCodeWorkspace(),
	}
}

// At is the frozen extraction.
func (x *ReplicaExtractor) At(v, t int) *View {
	g := x.l.G
	x.epoch++
	x.stamp[v] = x.epoch
	x.ball = append(x.ball[:0], v)
	x.frontier = append(x.frontier[:0], v)
	for d := 0; d < t && len(x.frontier) > 0; d++ {
		x.next = x.next[:0]
		for _, w := range x.frontier {
			for _, u := range g.row(w) {
				if x.stamp[u] != x.epoch {
					x.stamp[u] = x.epoch
					x.next = append(x.next, int(u))
					x.ball = append(x.ball, int(u))
				}
			}
		}
		x.frontier, x.next = x.next, x.frontier
	}

	k := len(x.ball)
	if cap(x.labels) < k {
		x.labels = make([]Label, k)
		x.orig = make([]int, k)
		x.outIDs = make([]int, k)
	}
	x.labels = x.labels[:k]
	x.orig = x.orig[:k]
	x.outIDs = x.outIDs[:k]
	for i, w := range x.ball {
		x.viewIndex[w] = int32(i)
	}
	x.viewNbrs = x.viewNbrs[:0]
	x.viewOffsets = append(x.viewOffsets[:0], 0)
	for _, w := range x.ball {
		start := len(x.viewNbrs)
		for _, u := range g.row(w) {
			if x.stamp[u] == x.epoch {
				x.viewNbrs = append(x.viewNbrs, x.viewIndex[u])
			}
		}
		slices.Sort(x.viewNbrs[start:])
		x.viewOffsets = append(x.viewOffsets, int32(len(x.viewNbrs)))
	}
	for i, w := range x.ball {
		x.labels[i] = x.l.Labels[w]
		x.orig[i] = w
		if x.ids != nil {
			x.outIDs[i] = x.ids[w]
		}
	}

	x.code.Prewarm(k, len(x.viewNbrs)/2)

	x.g = Graph{offsets: x.viewOffsets, neighbors: x.viewNbrs, m: len(x.viewNbrs) / 2}
	x.labeled = Labeled{G: &x.g, Labels: x.labels[:k]}
	x.view = View{Labeled: &x.labeled, Root: 0, Radius: t, Original: x.orig[:k], ws: x.code}
	if x.ids != nil {
		x.view.IDs = x.outIDs[:k]
	}
	return &x.view
}

// CSR exposes a view's flat adjacency arrays to the external test package.
func (v *View) CSR() (offsets, neighbors []int32) {
	g := v.G
	g.ensureStatic()
	return g.offsets, g.neighbors
}
