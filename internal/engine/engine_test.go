package engine

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

func degreeAtMost(k int) Decider {
	return Decider{
		Name:    "deg<=k",
		Horizon: 1,
		Decide: func(view *graph.View) Verdict {
			return Verdict(view.G.Degree(view.Root) <= k)
		},
	}
}

// An instance with no nodes is an explicit error on every scheduler: the
// seed-era vacuous accept made "we decided nothing" indistinguishable from
// "every node said yes".
func TestEmptyGraphIsAnError(t *testing.T) {
	l := graph.UniformlyLabeled(graph.New(0), "")
	for _, sched := range []Scheduler{Sequential, Sharded, MessagePassing} {
		out := EvalOblivious(degreeAtMost(0), l, Options{Scheduler: sched})
		if out.Accepted {
			t.Errorf("%s: empty graph must not read as accepted", sched.Name())
		}
		if !errors.Is(out.Err, ErrEmptyInstance) {
			t.Errorf("%s: Err = %v, want ErrEmptyInstance", sched.Name(), out.Err)
		}
	}
}

func TestDedupOnCycle(t *testing.T) {
	// Every node of a uniformly labelled cycle has the same radius-2 view:
	// one decide call, n-1 cache hits.
	l := graph.UniformlyLabeled(graph.Cycle(200), "c")
	var calls atomic.Int64
	dec := Decider{Name: "count", Horizon: 2, Decide: func(view *graph.View) Verdict {
		calls.Add(1)
		return Yes
	}}
	out := EvalOblivious(dec, l, Options{Dedup: true})
	if !out.Accepted {
		t.Fatal("uniform cycle should accept")
	}
	if calls.Load() != 1 {
		t.Errorf("decider called %d times, want 1 (dedup)", calls.Load())
	}
	if out.Stats.DedupHits != 199 || out.Stats.DistinctViews != 1 {
		t.Errorf("stats = %+v, want 199 hits over 1 distinct view", out.Stats)
	}
}

func TestDedupSkippedWhenUnsound(t *testing.T) {
	// Identifier-carrying evaluation: dedup must be silently disabled.
	l := graph.UniformlyLabeled(graph.Cycle(8), "c")
	ids := []int{3, 1, 4, 15, 9, 2, 6, 5}
	var calls atomic.Int64
	dec := Decider{Name: "count", Horizon: 1, UsesIDs: true, Decide: func(view *graph.View) Verdict {
		calls.Add(1)
		return Yes
	}}
	out := Eval(dec, graph.NewInstance(l, ids), Options{Dedup: true})
	if calls.Load() != 8 || out.Stats.DedupHits != 0 {
		t.Errorf("calls=%d hits=%d: dedup must not apply to ID-carrying views", calls.Load(), out.Stats.DedupHits)
	}
}

func TestEarlyExitStopsEvaluation(t *testing.T) {
	// A single-reject instance with early exit: sequential evaluation must
	// stop at the rejecting node.
	l := graph.UniformlyLabeled(graph.Path(100), "")
	dec := Decider{Name: "reject-root-5", Horizon: 0, Decide: func(view *graph.View) Verdict {
		return Verdict(view.Original[view.Root] != 5)
	}}
	out := EvalOblivious(dec, l, Options{EarlyExit: true})
	if out.Accepted {
		t.Fatal("instance must be rejected")
	}
	if out.Verdicts != nil {
		t.Error("early-exit outcomes carry no per-node verdicts")
	}
	if !out.Stats.EarlyExit {
		t.Error("stats should record the early exit")
	}
	if out.Stats.Evaluated != 6 {
		t.Errorf("evaluated %d nodes, want 6 (stop at first reject)", out.Stats.Evaluated)
	}
}

func TestShardedWithCapsWorkers(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(500), "c")
	out := EvalOblivious(degreeAtMost(2), l, Options{Scheduler: ShardedWith(3)})
	if !out.Accepted {
		t.Fatal("cycle is 2-regular")
	}
	if out.Stats.Workers != 3 {
		t.Errorf("workers = %d, want 3", out.Stats.Workers)
	}
	// Tiny instance: the pool must collapse to inline evaluation.
	small := graph.UniformlyLabeled(graph.Cycle(5), "c")
	out = EvalOblivious(degreeAtMost(2), small, Options{Scheduler: Sharded})
	if out.Stats.Workers != 1 {
		t.Errorf("workers = %d on n=5, want 1 (no idle goroutines)", out.Stats.Workers)
	}
}

func TestRandomizedSeedDeterminism(t *testing.T) {
	// Coin streams are a function of (seed, node) only, so repeated runs and
	// different schedulers agree verdict for verdict.
	l := graph.RandomLabels(graph.Random(80, 0.1, 1), []graph.Label{"a", "b"}, 2)
	dec := Decider{Name: "coin", Horizon: 1, DecideRand: func(view *graph.View, rng *rand.Rand) Verdict {
		return Verdict(rng.Intn(4) != 0)
	}}
	a := EvalOblivious(dec, l, Options{Seed: 7})
	b := EvalOblivious(dec, l, Options{Seed: 7, Scheduler: ShardedWith(4)})
	c := EvalOblivious(dec, l, Options{Seed: 8})
	for v := range a.Verdicts {
		if a.Verdicts[v] != b.Verdicts[v] {
			t.Fatalf("node %d: scheduler changed a coin verdict", v)
		}
	}
	diff := false
	for v := range a.Verdicts {
		if a.Verdicts[v] != c.Verdicts[v] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should (overwhelmingly) change some verdict")
	}
}

// Malformed deciders come back as Outcome.Err, not a panic; the panicking
// behaviour survives only in MustEvalOblivious/MustEval.
func TestDeciderValidation(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Path(3), "")
	for _, dec := range []Decider{
		{Name: "neither", Horizon: 1},
		{Name: "both", Horizon: 1,
			Decide:     func(view *graph.View) Verdict { return Yes },
			DecideRand: func(view *graph.View, rng *rand.Rand) Verdict { return Yes }},
	} {
		out := EvalOblivious(dec, l, Options{})
		if out.Err == nil || out.Accepted {
			t.Errorf("%s: Outcome = %+v, want validation error", dec.Name, out)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MustEvalOblivious expected panic", dec.Name)
				}
			}()
			MustEvalOblivious(dec, l, Options{})
		}()
	}
}

// FuzzHaloRing round-trips the ShardedMP halo wire format. The fuzzer picks a
// small labelled host (labels are raw input bytes, so empty, repeated and
// non-UTF-8 labels all occur), optional identifiers, and per-link ring node
// sets; each link's rings are encoded in round order against one persistent
// encoder dictionary and decoded against the decoder's. Every decoded record
// must carry the host's node, label, identifier and full adjacency row, and
// after every ring the two dictionaries must agree entry for entry.
func FuzzHaloRing(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 'a', 'b', 'a', 'c', 'b'}, false)
	f.Add([]byte{12, 2, 1, 0, 5, 3, 7, 1, 9, 2, 2, 4, 11, 8, 0, 6, 'x', 'y', 0, 255, 'x', 1, 2, 3}, true)
	f.Add([]byte{30, 0, 2, 17, 4, 9, 21, 3, 3, 28, 14, 1, 'L', 'L', 'L'}, true)
	f.Add([]byte{1}, false)
	f.Fuzz(func(t *testing.T, spec []byte, withIDs bool) {
		at := func(i int) byte {
			if len(spec) == 0 {
				return 0
			}
			return spec[i%len(spec)]
		}
		n := 1 + int(at(0))%32
		rounds := 1 + int(at(1))%3
		links := 1 + int(at(2))%3
		var edges [][2]int
		for i := 3; i+1 < len(spec) && len(edges) < 4*n; i += 2 {
			u, v := int(spec[i])%n, int(spec[i+1])%n
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		labels := make([]graph.Label, n)
		for v := range labels {
			start, size := int(at(3*v+1)), int(at(3*v+2))%4
			lab := make([]byte, size)
			for k := range lab {
				lab[k] = at(start + k)
			}
			labels[v] = graph.Label(lab)
		}
		l := graph.NewLabeled(graph.FromEdges(n, edges), labels)
		j := &job{l: l}
		if withIDs {
			ids := make([]int, n)
			for v := range ids {
				ids[v] = v + n*int(at(5*v+3))<<20
			}
			j.in = graph.NewInstance(l, ids)
		}

		for link := 0; link < links; link++ {
			// Each node ships in at most one round per link (ring sets are
			// node-disjoint); value rounds means "not a ghost of this link".
			rings := make([][]int32, rounds)
			for v := 0; v < n; v++ {
				if r := int(at(7*link+v)) % (rounds + 1); r < rounds {
					rings[r] = append(rings[r], int32(v))
				}
			}
			encDict := make(map[graph.Label]int)
			var decDict []graph.Label
			var got []ghostRec
			for r, nodes := range rings {
				payload := encodeHaloRing(j, encDict, haloRing{round: r, nodes: nodes}, withIDs)
				got, decDict = decodeHaloRing(payload, decDict, withIDs, got[:0])
				if len(got) != len(nodes) {
					t.Fatalf("link %d round %d: decoded %d records, encoded %d", link, r, len(got), len(nodes))
				}
				for i, rec := range got {
					v := nodes[i]
					wantID := 0
					if withIDs {
						wantID = j.in.IDs[v]
					}
					if rec.node != v || rec.label != labels[v] || rec.id != wantID ||
						!slices.Equal(rec.row, l.G.Neighbors(int(v))) {
						t.Fatalf("link %d round %d: record %+v, want node %d label %q id %d row %v",
							link, r, rec, v, labels[v], wantID, l.G.Neighbors(int(v)))
					}
				}
				if len(decDict) != len(encDict) {
					t.Fatalf("link %d round %d: decoder dictionary has %d labels, encoder %d",
						link, r, len(decDict), len(encDict))
				}
				for i, lab := range decDict {
					if idx, ok := encDict[lab]; !ok || idx != i {
						t.Fatalf("link %d round %d: decoder entry %d = %q, encoder has it at %d (present %v)",
							link, r, i, lab, idx, ok)
					}
				}
			}
		}
	})
}

// TestLocalIndex checks the sharded sub-host's rank index against the
// position of every member in the ascending local list, and membership
// against the list, on hosts spanning one, several and partial 64-node words.
func TestLocalIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		for _, density := range []float64{0, 0.1, 0.5, 1} {
			var ext []int32
			pos := make(map[int32]int32)
			for u := 0; u < n; u++ {
				if rng.Float64() < density {
					pos[int32(u)] = int32(len(ext))
					ext = append(ext, int32(u))
				}
			}
			idx := newLocalIndex(n, ext)
			for u := int32(0); u < int32(n); u++ {
				li, ok := idx.lookup(u)
				want, member := pos[u]
				if ok != member || (member && li != want) {
					t.Fatalf("n=%d density %.1f: lookup(%d) = (%d, %v), want (%d, %v)", n, density, u, li, ok, want, member)
				}
			}
		}
	}
}
