package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// runRepro: closed loop of full (non-quick) E1–E16 passes through the
// experiment registry, seeded from the workload seed; every result must be
// OK. Set-up is one quick pass, which finishes lazy initialisation and heap
// growth before the first timed pass. A run holds only a handful of passes,
// so the op percentiles are taken per experiment, each experiment an arm as
// in the sweep.
func runRepro(e *env) (*outcome, error) {
	out := &outcome{}
	exps := experiments.Registry()
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		for _, x := range experiments.Registry() {
			if _, err := x.Run(experiments.Config{Quick: true, Seed: e.seed}); err != nil {
				return nil, fmt.Errorf("quick %s: %w", x.ID, err)
			}
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	cal := newCalibration()
	tr := newTracer()
	perExp, tracedExp := map[string][]float64{}, map[string][]float64{}
	var passes []float64
	deadline := time.Now().Add(e.seconds)
	for pass := 0; pass < 3 || time.Now().Before(deadline) || (e.trace && pass%2 == 1); pass++ {
		traced := e.trace && pass%2 == 1
		// Each pass draws its own seed from the workload seed, so a run's
		// median averages over the seed-dependent instance sizes. Traced
		// runs give a traced pass the seed of the untraced one before it.
		idx := pass
		if e.trace {
			idx = pass / 2
		}
		cfg := experiments.Config{Quick: false, Seed: e.seed*1000 + int64(idx)}
		var pass0 int
		if traced {
			pass0 = tr.begin("experiments.pass", -1)
		}
		var passTime time.Duration // the pass's Run calls, calibration excluded
		for _, x := range exps {
			sp := -1
			if traced {
				sp = tr.begin("experiments."+x.ID, pass0)
			}
			t1 := time.Now()
			res, err := x.Run(cfg)
			d := time.Since(t1)
			tr.end(sp)
			passTime += d
			out.attempted++
			if err != nil || !res.OK {
				out.failed++
				e.rep.note("FAIL %s: err=%v", x.ID, err)
			}
			if traced {
				tracedExp[x.ID] = append(tracedExp[x.ID], ms(d))
			} else {
				perExp[x.ID] = append(perExp[x.ID], ms(d))
				out.cal = append(out.cal, cal.sample(1)...)
			}
		}
		if traced {
			tr.end(pass0)
		} else {
			passes = append(passes, ms(passTime))
		}
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.rssMB = rss
	out.p50, out.p90 = armStats(perExp)
	out.tracedP50 = geoMedian(tracedExp)
	out.samples = len(passes) * len(exps)
	e.rep.add("pass_p50_ms", percentile(passes, 50), "ms", len(passes))
	for _, x := range exps {
		e.rep.add("exp_p50_ms."+x.ID, percentile(perExp[x.ID], 50), "ms", len(perExp[x.ID]))
	}
	if e.trace {
		return out, tr.write(e.tracePath("repro"))
	}
	return out, nil
}
