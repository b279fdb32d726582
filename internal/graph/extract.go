package graph

import (
	"fmt"
	"math"
	"slices"
)

// ViewExtractor extracts radius-t views in bulk while reusing all scratch
// memory between calls: the ball-membership mark array, the ball and raw-row
// buffers, the view's flat CSR arrays, and the label/identifier/original-index
// buffers. One extractor per worker turns per-node view extraction from "two
// map-backed allocations per node" (Ball + InducedSubgraph) into an
// allocation-free inner loop, which is where the evaluation engine spends its
// time on the large Section 3 instances.
//
// The only host-sized scratch is mark, 4 bytes per host node: a node u is in
// the current ball iff i := mark[u]-base is below the ball's length, and i is
// then u's view index. Every extraction hands out the indices base, base+1,
// ... and moves base past them, so marks left by earlier extractions (or by
// a previous host after Reset) fall outside the range without being cleared;
// whenever base+n would overflow, the whole backing array — including any
// tail a Reset to a smaller host has hidden — is cleared once and base
// restarts at 1.
//
// The emitted view graph is written directly into one reused flat arena
// (offsets + neighbours), mirroring the host graph's CSR layout. Each
// interior node's (depth < t) induced row is recorded while the BFS scans
// it — every neighbour of such a node lies in the ball — and only the
// depth-t layer's rows are scanned again and filtered. The recorded rows
// hold view indices in host order; a counting transpose sorts them: the
// view is symmetric, so appending each source, in ascending view index, to
// the rows of its neighbours rebuilds every row already sorted, with no
// per-row sort.
//
// The extractor reproduces ViewOf / ObliviousViewOf exactly: the view's node
// ordering is the same BFS discovery order (centre first, then by distance,
// within a layer by discovery), so the returned view is field-for-field
// identical to the one the one-shot helpers build.
//
// Lifetime contract: the *View returned by At (and everything it references —
// structure, labels, identifiers, Original) is only valid until the next call
// to At on the same extractor. Callers that need to retain a view must copy
// it; local deciders, which are pure functions of the view, never do.
//
// A ViewExtractor is not safe for concurrent use; give each worker its own.
type ViewExtractor struct {
	l   *Labeled
	ids []int // identifier per original node; nil for oblivious extraction

	// gen is the host graph's structural generation captured at bind time
	// (NewViewExtractor / Reset). At checks it so that extracting after the
	// host mutated — which the compat mutators historically allowed to read
	// torn adjacency silently — is a detected error instead.
	gen uint64

	// Ball scratch. mark is sized to the host graph; see the type comment
	// for the mark/base membership rule.
	mark []uint32
	base uint32
	ball []int32
	// raw holds the view's rows as recorded (view indices in host order,
	// at the view's own offsets); cursor is the transpose's per-row fill
	// position.
	raw    []int32
	cursor []int32

	// Reusable view output buffers, sized to the largest ball seen so far.
	// The view's adjacency is one flat CSR arena reused across calls.
	viewOffsets []int32
	viewNbrs    []int32
	labels      []Label
	outIDs      []int
	orig        []int

	// The returned view aliases these; they are overwritten by the next At.
	g       Graph
	labeled Labeled
	view    View

	// code is the canonical-code workspace shared by every view this
	// extractor produces, so code computation in the engine's inner loop
	// reuses one set of buffers end to end.
	code *CodeWorkspace
}

// NewViewExtractor returns an extractor producing ID-free views of l
// (the batched equivalent of ObliviousViewOf).
func NewViewExtractor(l *Labeled) *ViewExtractor {
	return &ViewExtractor{
		l:    l,
		gen:  l.G.Generation(),
		mark: make([]uint32, l.N()),
		base: 1, // a zeroed mark must not read as view index 0
		code: NewCodeWorkspace(),
	}
}

// NewInstanceViewExtractor returns an extractor producing identifier-carrying
// views of in (the batched equivalent of ViewOf).
func NewInstanceViewExtractor(in *Instance) *ViewExtractor {
	x := NewViewExtractor(in.Labeled)
	x.ids = in.IDs
	return x
}

// Reset rebinds the extractor to a new host graph while retaining every
// scratch buffer: the mark array, the flat view arenas and the shared
// canonical-code workspace. It is the batched-evaluation analogue of
// NewViewExtractor — one worker's extractor serves a whole slice of
// instances, so per-instance setup stops allocating once the largest host
// has been seen. Marks from the previous host are harmless: they all lie
// below base, outside every range At hands out (a regrown array is zeroed,
// base never falls to 0, and the wrap clear in At covers the array's full
// capacity, so a tail re-exposed by growing back within capacity holds no
// mark from before the clear). After Reset the extractor produces ID-free
// views; use ResetInstance to carry identifiers.
func (x *ViewExtractor) Reset(l *Labeled) {
	n := l.N()
	if cap(x.mark) < n {
		x.mark = make([]uint32, n)
	} else {
		x.mark = x.mark[:n]
	}
	x.l = l
	x.gen = l.G.Generation()
	x.ids = nil
}

// ResetInstance rebinds the extractor to an identifier-carrying instance,
// retaining scratch exactly like Reset.
func (x *ViewExtractor) ResetInstance(in *Instance) {
	x.Reset(in.Labeled)
	x.ids = in.IDs
}

// At extracts the radius-t view of node v. The result is valid until the next
// call; see the type documentation for the full lifetime contract.
func (x *ViewExtractor) At(v, t int) *View {
	g := x.l.G
	if g.gen != x.gen {
		panic(fmt.Sprintf("graph: ViewExtractor used after host mutation (bound at generation %d, host now %d); call Reset/ResetInstance after mutating the graph", x.gen, g.gen))
	}
	g.check(v)
	if t < 0 {
		panic("graph: negative radius")
	}
	mark := x.mark
	if uint64(x.base)+uint64(len(mark)) > math.MaxUint32 {
		// Clear the hidden tail too: a later Reset may grow mark back over
		// it, and marks written before the restart could then read as
		// members of a ball.
		clear(mark[:cap(mark)])
		x.base = 1
	}
	base := x.base

	// BFS over the ball, layer by layer (layers are contiguous in ball).
	// Nodes below depth t are expanded, and their rows are recorded as they
	// are scanned: every neighbour of an interior node is in the ball.
	mark[v] = base
	ball := append(x.ball[:0], int32(v))
	raw := x.raw[:0]
	off := append(x.viewOffsets[:0], 0)
	interior, layerEnd := 0, 1
	for d := 0; d < t && interior < len(ball); d++ {
		for ; interior < layerEnd; interior++ {
			for _, u := range g.row(int(ball[interior])) {
				i := mark[u] - base
				if i >= uint32(len(ball)) {
					i = uint32(len(ball))
					mark[u] = base + i
					ball = append(ball, u)
				}
				raw = append(raw, int32(i))
			}
			off = append(off, int32(len(raw)))
		}
		layerEnd = len(ball)
	}
	// The depth-t layer was never expanded: scan its rows and keep only the
	// neighbours inside the ball.
	k := len(ball)
	for _, w := range ball[interior:] {
		for _, u := range g.row(int(w)) {
			if i := mark[u] - base; i < uint32(k) {
				raw = append(raw, int32(i))
			}
		}
		off = append(off, int32(len(raw)))
	}
	x.base += uint32(k)

	// Counting transpose: the view is symmetric, so row j of the transpose
	// is row j itself, with the same length (hence the same offsets), and
	// visiting sources in ascending order fills it already sorted.
	nbrs := slices.Grow(x.viewNbrs[:0], len(raw))[:len(raw)]
	cursor := append(x.cursor[:0], off[:k]...)
	for i := 0; i < k; i++ {
		for _, j := range raw[off[i]:off[i+1]] {
			nbrs[cursor[j]] = int32(i)
			cursor[j]++
		}
	}
	x.ball, x.raw, x.cursor, x.viewOffsets, x.viewNbrs = ball, raw, cursor, off, nbrs

	x.growOutput(k)
	for i, w := range ball {
		x.labels[i] = x.l.Labels[w]
		x.orig[i] = int(w)
		if x.ids != nil {
			x.outIDs[i] = x.ids[w]
		}
	}

	// Pre-size the shared code workspace for this view while its arrays are
	// hot: a following CanonCode miss then runs entirely in warm, already
	// grown buffers (a handful of cap checks when nothing needs growing).
	x.code.Prewarm(k, len(nbrs)/2)

	x.g = Graph{offsets: off, neighbors: nbrs, m: len(nbrs) / 2}
	x.labeled = Labeled{G: &x.g, Labels: x.labels[:k]}
	x.view = View{Labeled: &x.labeled, Root: 0, Radius: t, Original: x.orig[:k], ws: x.code}
	if x.ids != nil {
		x.view.IDs = x.outIDs[:k]
	}
	return &x.view
}

// growOutput ensures the reusable output buffers hold k view nodes.
func (x *ViewExtractor) growOutput(k int) {
	if cap(x.labels) < k {
		x.labels = make([]Label, k)
		x.orig = make([]int, k)
		x.outIDs = make([]int, k)
	}
	x.labels = x.labels[:k]
	x.orig = x.orig[:k]
	x.outIDs = x.outIDs[:k]
}
