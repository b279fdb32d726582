package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/tree"
)

// residentCacheBytes is the shared cache's budget: well below the working
// set of the fresh-cycle decisions alone (each inserts ~2k raw and ~2k
// canonical entries), so CLOCK eviction runs throughout.
const residentCacheBytes = 1 << 20

// session is one engine.Incremental with a shadow copy of its host that
// receives the same edge updates, for from-scratch reference evaluations.
type session struct {
	name    string
	inc     *engine.Incremental
	dec     engine.Decider
	shadow  *graph.Labeled
	rng     *rand.Rand
	batch   int
	pending []engine.EdgeOp // the last batch, undone by the next one
	chord   func(rng *rand.Rand) (int, int)
}

// nextBatch toggles edges: odd batches add fresh seeded chords, even batches
// remove the chords the previous batch added, so the host oscillates around
// its original shape instead of drifting denser.
func (s *session) nextBatch() []engine.EdgeOp {
	if s.pending != nil {
		ops := make([]engine.EdgeOp, len(s.pending))
		for i, op := range s.pending {
			ops[i] = engine.EdgeOp{U: op.U, V: op.V, Add: false}
		}
		s.pending = nil
		return ops
	}
	ops := make([]engine.EdgeOp, 0, s.batch)
	for len(ops) < s.batch {
		u, v := s.chord(s.rng)
		if u != v && !s.shadow.G.HasEdge(u, v) && !slices.ContainsFunc(ops, func(op engine.EdgeOp) bool {
			return (op.U == u && op.V == v) || (op.U == v && op.V == u)
		}) {
			ops = append(ops, engine.EdgeOp{U: u, V: v, Add: true})
		}
	}
	s.pending = ops
	return ops
}

// verify compares the session's resident verdicts with a from-scratch
// evaluation of the shadow host.
func (s *session) verify() bool {
	ref := engine.EvalOblivious(s.dec, s.shadow, engine.Options{})
	return ref.Err == nil && s.inc.Outcome().Err == nil && s.inc.Accepted() == ref.Accepted &&
		slices.Equal(s.inc.Verdicts(), ref.Verdicts)
}

// residentState is everything one set-up of the resident workload builds:
// the shared cache, the four re-decided hosts and the two update sessions.
type residentState struct {
	cache    *engine.ViewCache
	reads    []*instance
	sessions []*session
}

func buildResident(seed int64) (*residentState, error) {
	st := &residentState{cache: engine.NewBoundedViewCache(residentCacheBytes)}
	st.reads = []*instance{
		{name: "cycle", l: graph.UniformlyLabeled(graph.Cycle(100_000), "c"), t: 8, accept: true},
		{name: "grid", l: graph.UniformlyLabeled(graph.Grid(316, 316), "g"), t: 3, accept: true},
		{name: "layered", l: graph.UniformlyLabeled(tree.NewLayeredTree(14).G, "l"), t: 3, accept: false},
		{name: "pyramid", l: graph.UniformlyLabeled(tree.NewPyramid(8).G, "p"), t: 3, accept: false},
	}
	cycleN := 100_000
	pyr := tree.NewPyramid(8)
	specs := []struct {
		name  string
		g     func() *graph.Graph
		t     int
		batch int
		chord func(rng *rand.Rand) (int, int)
	}{
		{"cycle", func() *graph.Graph { return graph.Cycle(cycleN) }, 4, 64, func(rng *rand.Rand) (int, int) {
			u := rng.Intn(cycleN)
			return u, (u + 2 + rng.Intn(48)) % cycleN
		}},
		{"pyramid", func() *graph.Graph { return tree.NewPyramid(8).G }, 3, 4, func(rng *rand.Rand) (int, int) {
			return rng.Intn(pyr.N()), rng.Intn(pyr.N())
		}},
	}
	for i, sp := range specs {
		dec := degreeDecider(sp.t)
		inc, err := engine.NewIncremental(dec, graph.UniformlyLabeled(sp.g(), "u"), engine.Options{Cache: st.cache})
		if err != nil {
			return nil, fmt.Errorf("%s session: %w", sp.name, err)
		}
		st.sessions = append(st.sessions, &session{
			name: sp.name, inc: inc, dec: dec, shadow: graph.UniformlyLabeled(sp.g(), "u"),
			rng: rand.New(rand.NewSource(seed*31 + int64(i))), batch: sp.batch, chord: sp.chord,
		})
	}
	return st, nil
}

// residentOp is one closed-loop operation of a round.
type residentOp struct {
	kind string // "read", "update" or "fresh"
	idx  int    // read instance or session index
}

// residentRound lists one round's operations: 6 update batches, 4 fresh
// decisions and 4 re-decisions. Each session gets an even number of
// batches, so every round adds and removes the same number of chords.
var residentRound = []residentOp{
	{"update", 0}, {"read", 0}, {"fresh", 0}, {"update", 1}, {"read", 1}, {"update", 0},
	{"fresh", 0}, {"read", 2}, {"update", 0}, {"fresh", 0}, {"read", 3}, {"update", 1},
	{"fresh", 0}, {"update", 0},
}

// freshCycle is a randomly labelled cycle whose horizon-16 views are all
// distinct: every view misses both cache levels and is inserted.
func freshCycle(seed int64) *graph.Labeled {
	return graph.RandomLabels(graph.Cycle(2000), []graph.Label{"a", "b", "c", "d"}, seed)
}

// runResident: closed loop, one caller, one long-lived bounded cache shared
// by dedup re-decisions (hit-heavy), fresh-label decisions (insert/evict-
// heavy) and two Incremental sessions absorbing edge-toggle batches.
func runResident(e *env) (*outcome, error) {
	out := &outcome{}
	var st *residentState
	for rep := 0; rep < setupReps; rep++ {
		st = nil
		runtime.GC()
		t0 := time.Now()
		s, err := buildResident(e.seed)
		if err != nil {
			return nil, err
		}
		st = s
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	for _, in := range st.reads {
		if err := in.reference(); err != nil {
			return nil, err
		}
	}
	cal := newCalibration()
	rng := rand.New(rand.NewSource(e.seed))
	tr := newTracer()
	var verdicts, toggles, dirty int
	var opTime, updTime time.Duration
	perKind := map[string][]float64{}
	arms, tracedArms := map[string][]float64{}, map[string][]float64{}
	freshSeed := e.seed * 1_000_003
	deadline := time.Now().Add(e.seconds)
	for round := 0; round < 3 || time.Now().Before(deadline) || (e.trace && round%2 == 0); round++ {
		// Round 0 warms the cache and is not measured; traced runs measure
		// an even number of rounds.
		traced := e.trace && round > 0 && round%2 == 0
		for _, op := range residentRound {
			var sp int
			if traced {
				sp = tr.begin("resident."+op.kind, -1)
			}
			var ok bool
			var n, dn int
			var d time.Duration
			var arm string
			switch op.kind {
			case "read":
				in := st.reads[op.idx]
				arm = "read." + in.name
				t0 := time.Now()
				res := engine.EvalOblivious(degreeDecider(in.t), in.l, engine.Options{Cache: st.cache})
				d = time.Since(t0)
				ok, n = in.check(res), len(res.Verdicts)
			case "fresh":
				arm = "fresh"
				freshSeed++
				l := freshCycle(freshSeed)
				t0 := time.Now()
				res := engine.EvalOblivious(degreeDecider(16), l, engine.Options{Cache: st.cache})
				d = time.Since(t0)
				ok = res.Err == nil && res.Accepted && !slices.Contains(res.Verdicts, engine.No) && res.Stats.DedupHits == 0
				n = len(res.Verdicts)
			case "update":
				s := st.sessions[op.idx]
				ops := s.nextBatch()
				arm = "update." + s.name + map[bool]string{true: ".add", false: ".remove"}[ops[0].Add]
				t0 := time.Now()
				dn = s.inc.ApplyUpdates(ops)
				d = time.Since(t0)
				for _, u := range ops {
					s.shadow.G.ApplyUpdate(u.U, u.V, u.Add)
				}
				ok, n = s.inc.Failed() == 0, dn
				if rng.Intn(8) == 0 {
					ok = ok && s.verify()
				}
				if round > 0 && !traced {
					toggles += len(ops)
					dirty += dn
					updTime += d
				}
			}
			if traced {
				tr.end(sp)
			}
			if round == 0 {
				if !ok {
					return nil, fmt.Errorf("warm-up %s %d failed", op.kind, op.idx)
				}
				continue
			}
			out.attempted++
			if !ok {
				out.failed++
				e.rep.note("FAIL resident %s %d", op.kind, op.idx)
			}
			if traced {
				tracedArms[arm] = append(tracedArms[arm], ms(d))
				continue
			}
			arms[arm] = append(arms[arm], ms(d))
			out.samples++
			perKind[op.kind] = append(perKind[op.kind], ms(d))
			verdicts += n
			opTime += d
			out.cal = append(out.cal, cal.sample(1)...)
		}
	}
	for _, s := range st.sessions {
		out.attempted++
		if !s.verify() {
			out.failed++
			e.rep.note("FAIL resident final check of the %s session", s.name)
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.rssMB = rss
	out.p50, out.p90 = armStats(arms)
	out.tracedP50 = geoMedian(tracedArms)
	e.rep.add("verdicts_per_s", float64(verdicts)/opTime.Seconds(), "1/s", out.samples)
	e.rep.add("updates_per_s", float64(toggles)/updTime.Seconds(), "1/s", toggles)
	e.rep.add("dirty_per_update", float64(dirty)/float64(max(toggles, 1)), "count", toggles)
	for _, k := range []string{"read", "fresh", "update"} {
		e.rep.add("op_p50_ms."+k, percentile(perKind[k], 50), "ms", len(perKind[k]))
	}
	cs := st.cache.Stats()
	e.rep.add("cache_hit_ratio", float64(cs.Hits)/float64(max(cs.Hits+cs.Misses, 1)), "ratio", int(cs.Hits+cs.Misses))
	e.rep.add("cache_evictions", float64(cs.Evictions), "count", 1)
	if e.trace {
		return out, tr.write(e.tracePath("resident"))
	}
	return out, nil
}
