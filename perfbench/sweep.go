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

// degreeDecider is the cheap view-degree decider of the engine benchmarks:
// the verdict is a constant-time look at the root, so extraction and the
// scheduler do nearly all the work.
func degreeDecider(horizon int) engine.Decider {
	return engine.Decider{Name: "deg<=4", Horizon: horizon, Decide: func(v *graph.View) engine.Verdict {
		return engine.Verdict(v.G.Degree(v.Root) <= 4)
	}}
}

// instance is one host with its horizon and the reference verdicts every
// evaluation of it must reproduce bit for bit.
type instance struct {
	name   string
	l      *graph.Labeled
	t      int
	accept bool // acceptance known by construction
	ref    []engine.Verdict
}

// sweepInstances builds the four sweep hosts. Only the random host depends
// on the seed.
func sweepInstances(seed int64) []*instance {
	const n = 100_000
	return []*instance{
		{name: "cycle", l: graph.UniformlyLabeled(graph.Cycle(n), "c"), t: 8, accept: true},
		{name: "grid", l: graph.UniformlyLabeled(graph.Grid(316, 316), "g"), t: 3, accept: true},
		{name: "pyramid", l: graph.UniformlyLabeled(tree.NewPyramid(8).G, "p"), t: 3, accept: false},
		{name: "random", l: graph.UniformlyLabeled(graph.Random(n, 4.0/n, seed), "r"), t: 2, accept: false},
	}
}

// reference fills in.ref from a Sequential evaluation and checks it against
// the verdicts read straight off the host's degrees, and the aggregate
// against the acceptance known by construction.
func (in *instance) reference() error {
	out := engine.EvalOblivious(degreeDecider(in.t), in.l, engine.Options{Scheduler: engine.Sequential})
	if out.Err != nil {
		return fmt.Errorf("%s reference: %w", in.name, out.Err)
	}
	for v, got := range out.Verdicts {
		if got != engine.Verdict(in.l.G.Degree(v) <= 4) {
			return fmt.Errorf("%s reference: node %d verdict %v disagrees with its degree %d", in.name, v, got, in.l.G.Degree(v))
		}
	}
	if out.Accepted != in.accept {
		return fmt.Errorf("%s reference: accepted=%v, want %v by construction", in.name, out.Accepted, in.accept)
	}
	in.ref = out.Verdicts
	return nil
}

// check reports whether an outcome is a healthy, bit-identical copy of the
// reference.
func (in *instance) check(out engine.Outcome) bool {
	return out.Err == nil && out.Accepted == in.accept && slices.Equal(out.Verdicts, in.ref)
}

// arm is one backend of the sweep.
type arm struct {
	name  string
	sched engine.Scheduler
}

func sweepArms() []arm {
	return []arm{
		{"sequential", engine.Sequential},
		{"sharded", engine.ShardedWith(2)},
		{"sharded-mp-1", engine.ShardedMPWith(1)},
		{"sharded-mp-2", engine.ShardedMPWith(2)},
	}
}

// runSweep: closed loop, one caller, cold full-instance decisions with dedup
// off. Each rotation evaluates every (instance, backend) pair, an arm, once
// in a seeded order.
func runSweep(e *env) (*outcome, error) {
	out := &outcome{}
	var insts []*instance
	for rep := 0; rep < setupReps; rep++ {
		insts = nil
		runtime.GC()
		t0 := time.Now()
		insts = sweepInstances(e.seed)
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	for _, in := range insts {
		if err := in.reference(); err != nil {
			return nil, err
		}
	}
	arms := sweepArms()
	cal := newCalibration()
	rng := rand.New(rand.NewSource(e.seed))
	tr := newTracer()
	perArm, tracedArm := map[string][]float64{}, map[string][]float64{}
	var verdicts int
	var opTime time.Duration
	deadline := time.Now().Add(e.seconds)
	// Untraced runs stop at the first op past the deadline once every arm
	// has two samples; traced runs stop only after a traced rotation.
	done := func(rot int) bool {
		return rot >= 2 && !e.trace && time.Now().After(deadline)
	}
	for rot := 0; rot < 2 || time.Now().Before(deadline) || (e.trace && rot%2 == 1); rot++ {
		traced := e.trace && rot%2 == 1
		for _, k := range rng.Perm(len(insts) * len(arms)) {
			if done(rot) {
				break
			}
			in, a := insts[k/len(arms)], arms[k%len(arms)]
			dec := degreeDecider(in.t)
			var sp int
			if traced {
				sp = tr.begin("engine.EvalOblivious/"+in.name+"/"+a.name, -1)
			}
			t0 := time.Now()
			res := engine.EvalOblivious(dec, in.l, engine.Options{Scheduler: a.sched})
			d := time.Since(t0)
			if traced {
				tr.end(sp)
			}
			out.attempted++
			if !in.check(res) {
				out.failed++
				e.rep.note("FAIL %s/%s: err=%v accepted=%v", in.name, a.name, res.Err, res.Accepted)
			}
			key := in.name + "." + a.name
			if traced {
				tracedArm[key] = append(tracedArm[key], ms(d))
				continue
			}
			perArm[key] = append(perArm[key], ms(d))
			verdicts += len(res.Verdicts)
			opTime += d
			out.samples++
			// Collect this op's garbage outside the timed region (sample
			// does), so an op's time does not depend on which op ran
			// before it.
			out.cal = append(out.cal, cal.sample(1)...)
		}
	}
	out.p50, out.p90 = armStats(perArm)
	out.tracedP50 = geoMedian(tracedArm)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.rssMB = rss
	e.rep.add("verdicts_per_s", float64(verdicts)/opTime.Seconds(), "1/s", out.samples)
	for _, in := range insts {
		for _, a := range arms {
			xs := perArm[in.name+"."+a.name]
			e.rep.add("eval_p50_ms."+in.name+"."+a.name, percentile(xs, 50), "ms", len(xs))
		}
	}
	if e.trace {
		return out, tr.write(e.tracePath("sweep"))
	}
	return out, nil
}
