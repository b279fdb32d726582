// Integration tests of the engine's fault-injection hardening against the
// real internal/fault injector (an external test package: fault imports
// engine, so these tests cannot live in package engine).
package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
)

func degreeDecider() engine.Decider {
	return engine.Decider{
		Name:    "deg<=2",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			return engine.Verdict(view.G.Degree(view.Root) <= 2)
		},
	}
}

// labelSumDecider needs the full radius-2 view, so MP flooding and
// ShardedMP's two-round halo exchange (and its rim fallback) do real work.
func labelSumDecider() engine.Decider {
	return engine.Decider{
		Name:    "label-sum",
		Horizon: 2,
		Decide: func(view *graph.View) engine.Verdict {
			sum := 0
			for _, lab := range view.Labels {
				sum += len(lab)
			}
			return engine.Verdict(sum%7 != 3)
		},
	}
}

func testInstance(n int) *graph.Labeled {
	return graph.RandomLabels(graph.Cycle(n), []graph.Label{"a", "bb", "ccc"}, 9)
}

// Worker crashes must never lose or duplicate a node's verdict: whatever the
// scheduler or worker count, a crashed decide is respawned and the committed
// verdicts match the fault-free run exactly (or surface as VerdictErrors —
// never as silent wrong verdicts). Crash draws are pure in (node, attempt),
// so the whole fault trace replays identically everywhere.
func TestCrashRespawnNeverLosesVerdicts(t *testing.T) {
	l := testInstance(60)
	dec := degreeDecider()
	clean := engine.EvalOblivious(dec, l, engine.Options{})
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}

	plan := &fault.Plan{Seed: 21, Crash: &fault.CrashModel{Rate: 0.4}}
	type runKey struct {
		name  string
		sched engine.Scheduler
	}
	runs := []runKey{
		{"sequential", engine.Sequential},
		{"sharded-2", engine.ShardedWith(2)},
		{"sharded-8", engine.ShardedWith(8)},
		{"mp", engine.MessagePassing},
	}
	var base engine.Outcome
	for i, rk := range runs {
		out := engine.EvalOblivious(dec, l, engine.Options{
			Scheduler:    rk.sched,
			Faults:       plan,
			MaxAttempts:  8,
			RetryBackoff: -1,
		})
		if len(out.Errs) != 0 {
			// Rate 0.4 with 8 attempts: per-node failure odds 0.4^8. The
			// trace is deterministic, so this is a fixed property of seed 21.
			t.Fatalf("%s: unexpected exhausted nodes %v", rk.name, out.Errs)
		}
		if out.Err != nil {
			t.Fatalf("%s: %v", rk.name, out.Err)
		}
		if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) || out.Accepted != clean.Accepted {
			t.Errorf("%s: crash respawn changed verdicts", rk.name)
		}
		if out.Stats.Crashes == 0 {
			t.Errorf("%s: rate 0.4 injected no crashes", rk.name)
		}
		if out.Stats.Retries != out.Stats.Crashes {
			t.Errorf("%s: crashes=%d retries=%d, want equal when no node exhausts",
				rk.name, out.Stats.Crashes, out.Stats.Retries)
		}
		if i == 0 {
			base = out
			continue
		}
		// The fault trace is scheduler- and worker-count-invariant.
		if out.Stats.Crashes != base.Stats.Crashes || out.Stats.Retries != base.Stats.Retries {
			t.Errorf("%s: fault tally (crashes=%d retries=%d) diverged from sequential (%d, %d)",
				rk.name, out.Stats.Crashes, out.Stats.Retries, base.Stats.Crashes, base.Stats.Retries)
		}
	}
}

// Exhausted retries surface as per-node VerdictErrors and an unreliable
// outcome — never as an accept, on the early-exit path included.
func TestCrashExhaustionIsErrorNotAccept(t *testing.T) {
	l := testInstance(12)
	dec := degreeDecider()
	plan := &fault.Plan{Seed: 1, Crash: &fault.CrashModel{Rate: 1}}
	opts := engine.Options{Faults: plan, MaxAttempts: 2, RetryBackoff: -1}

	out := engine.EvalOblivious(dec, l, opts)
	if out.Accepted {
		t.Fatal("an all-crash run must not read as accepted")
	}
	if out.Err == nil {
		t.Fatal("an all-crash run must carry an error")
	}
	var ve engine.VerdictError
	if !errors.As(out.Err, &ve) {
		t.Fatalf("Err = %v, want a VerdictError", out.Err)
	}
	if len(out.Errs) != l.N() {
		t.Fatalf("errs = %d, want one per node", len(out.Errs))
	}
	for i, e := range out.Errs {
		if e.Node != i || e.Attempts != 2 {
			t.Errorf("errs[%d] = %+v, want node %d after 2 attempts", i, e, i)
		}
	}

	opts.EarlyExit = true
	out = engine.EvalOblivious(dec, l, opts)
	if out.Accepted || out.Err == nil {
		t.Error("early exit must not turn exhausted nodes into an accept")
	}
}

// A genuine decider panic (not injected) takes the same respawn path: flaky
// panics are retried away, persistent ones become VerdictErrors.
func TestGenuinePanicRespawn(t *testing.T) {
	l := testInstance(10)
	var calls [10]atomic.Int32
	flaky := engine.Decider{
		Name:    "flaky",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			if calls[view.Original[view.Root]].Add(1) == 1 {
				panic("first attempt always dies")
			}
			return engine.Yes
		},
	}
	out := engine.EvalOblivious(flaky, l, engine.Options{MaxAttempts: 3, RetryBackoff: -1})
	if !out.Accepted || out.Err != nil {
		t.Fatalf("flaky decider must recover on retry: accepted=%v err=%v", out.Accepted, out.Err)
	}
	if out.Stats.Crashes != 10 || out.Stats.Retries != 10 {
		t.Errorf("crashes=%d retries=%d, want 10 each (one panic per node)",
			out.Stats.Crashes, out.Stats.Retries)
	}

	persistent := engine.Decider{
		Name:    "dies-at-7",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			if view.Original[view.Root] == 7 {
				panic("node 7 always dies")
			}
			return engine.Yes
		},
	}
	out = engine.EvalOblivious(persistent, l, engine.Options{MaxAttempts: 3, RetryBackoff: -1})
	if out.Accepted {
		t.Fatal("a persistently panicking node must not read as accepted")
	}
	if len(out.Errs) != 1 || out.Errs[0].Node != 7 || out.Errs[0].Attempts != 3 {
		t.Fatalf("errs = %+v, want node 7 after 3 attempts", out.Errs)
	}
}

// The message-fault matrix on ShardedMP's halo links: drop, duplicate and
// delay at several rates. Degradation must never change a verdict — rim
// nodes of a shard that lost a ring fall back to full-host extractor
// evaluation, so the committed verdicts always equal the fault-free run —
// and the fault trace must replay identically from the seed.
func TestMessageFaultMatrixNeverWrong(t *testing.T) {
	l := testInstance(24)
	dec := labelSumDecider()
	clean := engine.EvalOblivious(dec, l, engine.Options{})
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}

	matrix := []fault.MessageModel{
		{DropRate: 0.1, RetransmitBudget: 1},
		{DropRate: 0.4, RetransmitBudget: 1},
		{DropRate: 0.4, RetransmitBudget: 0},
		{DuplicateRate: 0.3},
		{DelayRate: 0.3, MaxDelay: 2},
		{DropRate: 0.2, DuplicateRate: 0.2, DelayRate: 0.2, RetransmitBudget: 2},
	}
	for i, m := range matrix {
		m := m
		plan := &fault.Plan{Seed: int64(100 + i), Message: &m}
		opts := engine.Options{Scheduler: engine.ShardedMPWith(4), Faults: plan}
		out := engine.EvalOblivious(dec, l, opts)
		if out.Err != nil {
			t.Fatalf("model %d: message faults must degrade, not fail: %v", i, out.Err)
		}
		if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) || out.Accepted != clean.Accepted {
			t.Errorf("model %d (%+v): faulty sharded-MP verdicts diverged from fault-free", i, m)
		}
		if m.DropRate >= 0.4 && out.Stats.Dropped == 0 {
			t.Errorf("model %d: dropRate %.1f recorded no drops", i, m.DropRate)
		}
		if m.DuplicateRate > 0 && out.Stats.Duplicated == 0 {
			t.Errorf("model %d: duplicateRate %.1f recorded no duplicates", i, m.DuplicateRate)
		}
		if m.DelayRate > 0 && out.Stats.Delayed == 0 {
			t.Errorf("model %d: delayRate %.1f recorded no delays", i, m.DelayRate)
		}
		if out.Stats.Dropped > 0 && out.Stats.IncompleteViews == 0 {
			t.Errorf("model %d: lost messages recorded no incomplete views", i)
		}

		// Replay: the identical options replay the identical fault trace.
		again := engine.EvalOblivious(dec, l, opts)
		if !reflect.DeepEqual(again.Stats, out.Stats) {
			t.Errorf("model %d: same seed, different stats:\n%+v\n%+v", i, again.Stats, out.Stats)
		}
		if !reflect.DeepEqual(again.Verdicts, out.Verdicts) {
			t.Errorf("model %d: same seed, different verdicts", i)
		}
	}
}

// Crash injection and message faults compose on the ShardedMP backend. Its
// message sites are whole halo rings — 12 ring sends on this cycle at p=4,
// against 64 per-edge messages of flooding — so the drop rate is high
// enough to lose at least one ring.
func TestMessageAndCrashFaultsCompose(t *testing.T) {
	l := testInstance(16)
	dec := labelSumDecider()
	clean := engine.EvalOblivious(dec, l, engine.Options{})
	plan := &fault.Plan{
		Seed:    5,
		Crash:   &fault.CrashModel{Rate: 0.3},
		Message: &fault.MessageModel{DropRate: 0.5, RetransmitBudget: 1},
	}
	out := engine.EvalOblivious(dec, l, engine.Options{
		Scheduler:    engine.ShardedMPWith(4),
		Faults:       plan,
		MaxAttempts:  8,
		RetryBackoff: -1,
	})
	if out.Err != nil {
		t.Fatalf("composed faults: %v", out.Err)
	}
	if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) {
		t.Error("composed faults changed verdicts")
	}
	if out.Stats.Crashes == 0 || out.Stats.Dropped == 0 {
		t.Errorf("stats = %+v, want both crash and drop activity", out.Stats)
	}
}

// Every node loop tallies crashes, retries and cache traffic per worker and
// folds the tallies into one Stats. Crash draws are pure in (node, attempt)
// and a miss is computed under its shard lock exactly once, so the folded
// counters must not depend on which loop ran or how many workers it had:
// Sequential, the Sharded pool, ShardedMP's shards and an Incremental
// session's initial sweep all report the same numbers.
func TestCrashCounterParityAcrossLoops(t *testing.T) {
	const n = 300
	hosts := []struct {
		name string
		l    func() *graph.Labeled
	}{
		{"cycle", func() *graph.Labeled { return graph.UniformlyLabeled(graph.Cycle(n), "c") }},
		{"grid", func() *graph.Labeled { return graph.UniformlyLabeled(graph.Grid(15, 20), "g") }},
		{"random", func() *graph.Labeled { return testInstance(n) }},
	}
	type counters struct{ evaluated, hits, distinct, crashes, retries int }
	of := func(s engine.Stats) counters {
		return counters{s.Evaluated, s.DedupHits, s.DistinctViews, s.Crashes, s.Retries}
	}
	plan := &fault.Plan{Seed: 21, Crash: &fault.CrashModel{Rate: 0.3}}
	scheds := []struct {
		name  string
		sched engine.Scheduler
	}{
		{"sharded-1", engine.ShardedWith(1)},
		{"sharded-2", engine.ShardedWith(2)},
		{"sharded-8", engine.ShardedWith(8)},
		{"sharded-mp-1", engine.ShardedMPWith(1)},
		{"sharded-mp-2", engine.ShardedMPWith(2)},
		{"sharded-mp-4", engine.ShardedMPWith(4)},
	}
	for _, h := range hosts {
		for _, dedup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dedup=%v", h.name, dedup), func(t *testing.T) {
				opts := engine.Options{Dedup: dedup, Faults: plan, MaxAttempts: 8, RetryBackoff: -1}
				base := engine.EvalOblivious(degreeDecider(), h.l(), opts)
				if base.Err != nil {
					t.Fatal(base.Err)
				}
				want := of(base.Stats)
				t.Logf("sequential: %+v", want)
				if want.crashes == 0 {
					t.Fatal("rate 0.3 injected no crashes")
				}
				for _, s := range scheds {
					opts := opts
					opts.Scheduler = s.sched
					out := engine.EvalOblivious(degreeDecider(), h.l(), opts)
					if out.Err != nil {
						t.Fatalf("%s: %v", s.name, out.Err)
					}
					if got := of(out.Stats); got != want {
						t.Errorf("%s: counters %+v, sequential %+v", s.name, got, want)
					}
				}
				inc, err := engine.NewIncremental(degreeDecider(), h.l(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := of(inc.Stats()); got != want {
					t.Errorf("incremental: counters %+v, sequential %+v", got, want)
				}
			})
		}
	}
}
