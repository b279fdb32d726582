package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/tree"
)

// probe collects the per-layer metrics. Every traced run, whatever its
// workload, runs the same probe on the same seeded inputs, so each per-layer
// metric is printed by every traced run. The probe times the benchmark's own
// calls into each module's public functions; nothing inside the program is
// instrumented.
type probe struct {
	e   *env
	rng *rand.Rand
	m   map[string]metric
}

func (p *probe) put(name string, v float64, unit string, samples int) {
	p.m[name] = metric{v, unit}
	p.e.rep.add(name, v, unit, samples)
}

// median times f reps times and returns the median duration.
func median(reps int, f func()) time.Duration {
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(percentile(xs, 50))
}

func probeLayers(e *env) (map[string]metric, error) {
	p := &probe{e: e, rng: rand.New(rand.NewSource(e.seed)), m: map[string]metric{}}
	p.builds()
	insts := sweepInstances(e.seed)
	p.extraction(insts)
	p.decide(insts[0])
	p.partition(insts)
	p.applyUpdate()
	if err := p.engineArms(insts); err != nil {
		return nil, err
	}
	st, err := buildResident(e.seed)
	if err != nil {
		return nil, err
	}
	p.codes(st.reads)
	if err := p.cache(st); err != nil {
		return nil, err
	}
	p.updates(st)
	if err := p.store(); err != nil {
		return nil, err
	}
	if err := p.decided(); err != nil {
		return nil, err
	}
	if err := p.experiments(); err != nil {
		return nil, err
	}
	return p.m, nil
}

// builds: instance construction per node, graph and tree families.
func (p *probe) builds() {
	const n = 100_000
	for _, b := range []struct {
		name string
		f    func() int
	}{
		{"graph.build_ns_per_node.cycle", func() int { return graph.UniformlyLabeled(graph.Cycle(n), "c").N() }},
		{"graph.build_ns_per_node.grid", func() int { return graph.UniformlyLabeled(graph.Grid(316, 316), "g").N() }},
		{"graph.build_ns_per_node.random", func() int {
			return graph.UniformlyLabeled(graph.Random(n, 4.0/n, p.e.seed), "r").N()
		}},
		{"tree.build_ns_per_node.pyramid", func() int { return tree.NewPyramid(8).N() }},
		{"tree.build_ns_per_node.layered", func() int { return tree.NewLayeredTree(14).N() }},
	} {
		nodes := 0
		d := median(5, func() { nodes = b.f() })
		p.put(b.name, float64(d)/float64(nodes), "ns", 5)
	}
}

// sample draws k seeded node indices of an n-node host.
func (p *probe) sample(n, k int) []int {
	xs := make([]int, k)
	for i := range xs {
		xs[i] = p.rng.Intn(n)
	}
	return xs
}

// extraction: ViewExtractor.At per view and view size on the sweep hosts,
// every node in index order as the Sequential backend visits them.
func (p *probe) extraction(insts []*instance) {
	for _, in := range insts {
		n := in.l.N()
		x := graph.NewViewExtractor(in.l)
		for v := 0; v < 1000; v++ {
			x.At(v, in.t)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		size := 0
		t0 := time.Now()
		for v := 0; v < n; v++ {
			size += x.At(v, in.t).N()
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		ns := float64(d) / float64(n)
		p.put("graph.extract_ns_per_view."+in.name, ns, "ns", n)
		p.put("graph.view_nodes_mean."+in.name, float64(size)/float64(n), "count", n)
		if in.name == "cycle" {
			p.put("graph.extract_allocs_per_view", float64(ms1.Mallocs-ms0.Mallocs)/float64(n), "count", n)
		}
	}
}

// decide: one call of the sweep's degree decider, timed in groups of 16.
func (p *probe) decide(in *instance) {
	const k, group = 2000, 16
	dec := degreeDecider(in.t)
	x := graph.NewViewExtractor(in.l)
	var total time.Duration
	sink := 0
	for _, v := range p.sample(in.l.N(), k) {
		view := x.At(v, in.t)
		t0 := time.Now()
		for i := 0; i < group; i++ {
			if dec.Decide(view) {
				sink++
			}
		}
		total += time.Since(t0)
	}
	p.put("engine.decide_ns_per_call", float64(total)/(k*group), "ns", k*group)
}

// partition: NewPartition into two shards plus the halo frontier at the
// horizon, per node, over the four sweep hosts.
func (p *probe) partition(insts []*instance) {
	var total time.Duration
	nodes := 0
	for _, in := range insts {
		total += median(3, func() {
			pt := graph.NewPartition(in.l.G, 2, graph.PartitionBFSBlocked)
			pt.HaloFrontier(in.t)
		})
		nodes += in.l.N()
	}
	p.put("graph.partition_ns_per_node", float64(total)/float64(nodes), "ns", 3*len(insts))
}

// applyUpdate: Graph.ApplyUpdate on a dynamic cycle, chords in then out.
func (p *probe) applyUpdate() {
	const n, k = 100_000, 4000
	g := graph.Cycle(n)
	g.BeginUpdates()
	ops := make([][2]int, 0, k)
	for len(ops) < k {
		u := p.rng.Intn(n)
		ops = append(ops, [2]int{u, (u + 2 + p.rng.Intn(48)) % n})
	}
	t0 := time.Now()
	for _, op := range ops {
		g.ApplyUpdate(op[0], op[1], true)
	}
	for _, op := range ops {
		g.ApplyUpdate(op[0], op[1], false)
	}
	p.put("graph.apply_update_ns", float64(time.Since(t0))/(2*k), "ns", 2*k)
}

// engineArms: Eval per node for each sweep backend on the cycle; the loop
// overhead, which is Eval time (times its workers) minus a replay of the
// same extract and decide calls in index order, run right after each Eval;
// the halo counts of ShardedMP p=2 over the sweep hosts; and the facts table.
func (p *probe) engineArms(insts []*instance) error {
	cycle := insts[0]
	n := float64(cycle.l.N())
	dec := degreeDecider(cycle.t)
	x := graph.NewViewExtractor(cycle.l)
	replay := func() {
		for v := 0; v < cycle.l.N(); v++ {
			dec.Decide(x.At(v, cycle.t))
		}
	}
	type config struct {
		name string
		opts engine.Options
	}
	configs := []config{}
	for _, a := range sweepArms() {
		configs = append(configs, config{a.name, engine.Options{Scheduler: a.sched}})
	}
	configs = append(configs, config{"sequential+dedup", engine.Options{Scheduler: engine.Sequential, Dedup: true}})
	p.e.rep.note("facts: uniform cycle n=%d, t=%d, degree decider; median of 3 evals", cycle.l.N(), cycle.t)
	p.e.rep.note("  %-18s %10s %12s", "configuration", "ms/eval", "bytes/eval")
	for _, c := range configs {
		var res engine.Outcome
		engine.EvalOblivious(dec, cycle.l, c.opts)
		var evals, replays []float64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			res = engine.EvalOblivious(dec, cycle.l, c.opts)
			evals = append(evals, float64(time.Since(t0)))
			if res.Err != nil || !res.Accepted {
				return fmt.Errorf("%s eval: accepted=%v err=%v", c.name, res.Accepted, res.Err)
			}
			if rep == 2 {
				runtime.ReadMemStats(&ms1)
			}
			t0 = time.Now()
			replay()
			replays = append(replays, float64(time.Since(t0)))
		}
		d := percentile(evals, 50)
		p.e.rep.note("  %-18s %10.2f %12.0f", c.name, d/1e6, float64(ms1.TotalAlloc-ms0.TotalAlloc)/3)
		if c.opts.Dedup {
			continue
		}
		p.put("engine.eval_ns_per_node."+c.name, d/n, "ns", 3)
		p.put("engine.loop_ns_per_node."+c.name, (d*float64(res.Stats.Workers)-percentile(replays, 50))/n, "ns", 3)
	}
	var halo, ghosts, nodes, rounds int
	for _, in := range insts {
		res := engine.EvalOblivious(degreeDecider(in.t), in.l, engine.Options{Scheduler: engine.ShardedMPWith(2)})
		if res.Err != nil {
			return fmt.Errorf("%s sharded-mp-2: %w", in.name, res.Err)
		}
		halo += res.Stats.HaloBytes
		ghosts += res.Stats.GhostNodes
		rounds += len(res.Stats.RoundHaloBytes)
		nodes += in.l.N()
	}
	p.put("engine.halo_bytes_per_node", float64(halo)/float64(nodes), "bytes", len(insts))
	p.put("engine.ghost_nodes_per_node", float64(ghosts)/float64(nodes), "count", len(insts))
	p.put("engine.halo_rounds", float64(rounds)/float64(len(insts)), "count", len(insts))
	return nil
}

// codes: View.RawCode and View.CanonCode per view on the resident hosts,
// with the canonical tier read from the code's namespace byte, and the
// symmetric tier on the root view of serve's largest star.
func (p *probe) codes(reads []*instance) {
	const k, group = 500, 4
	var raw, fast, generic time.Duration
	var nRaw, nFast, nGeneric int
	for _, in := range reads {
		x := graph.NewViewExtractor(in.l)
		for _, v := range p.sample(in.l.N(), k) {
			view := x.At(v, in.t)
			t0 := time.Now()
			for i := 0; i < group; i++ {
				view.RawCode()
			}
			raw += time.Since(t0)
			nRaw += group
			if view.N() > 64 { // the engine decides larger views directly
				continue
			}
			t0 = time.Now()
			var c graph.Code
			for i := 0; i < group; i++ {
				c = view.CanonCode()
			}
			d := time.Since(t0)
			if len(c.Bytes) > 1 && c.Bytes[0] == 0 {
				fast += d
				nFast += group
			} else {
				generic += d
				nGeneric += group
			}
		}
	}
	p.put("graph.rawcode_ns_per_view", float64(raw)/float64(nRaw), "ns", nRaw)
	p.put("graph.canon_ns_per_view.fast", float64(fast)/float64(max(nFast, 1)), "ns", nFast)
	p.put("graph.canon_ns_per_view.generic", float64(generic)/float64(max(nGeneric, 1)), "ns", nGeneric)
	p.put("graph.canon_fast_share", float64(nFast)/float64(nFast+nGeneric), "ratio", nFast+nGeneric)
	star := graph.NewViewExtractor(graph.UniformlyLabeled(graph.Star(8), "")).At(0, 1)
	d := median(3, func() { star.CanonCode() })
	p.put("graph.canon_ns_per_view.symmetric", float64(d), "ns", 3)
}

// cache: one round of resident re-decisions and fresh decisions against a
// fresh bounded cache, read from Outcome.Stats and ViewCache.Stats.
func (p *probe) cache(st *residentState) error {
	c0 := st.cache.Stats()
	var nodes, evaluated, hits, ops int
	for pass := 0; pass < 2; pass++ {
		for i, in := range st.reads {
			res := engine.EvalOblivious(degreeDecider(in.t), in.l, engine.Options{Cache: st.cache})
			fresh := engine.EvalOblivious(degreeDecider(16), freshCycle(p.e.seed*7919+int64(pass*8+i)), engine.Options{Cache: st.cache})
			for _, r := range []engine.Outcome{res, fresh} {
				if r.Err != nil {
					return r.Err
				}
				nodes += r.Stats.Nodes
				evaluated += r.Stats.Evaluated
				hits += r.Stats.DedupHits
				ops++
			}
		}
	}
	c1 := st.cache.Stats()
	lookups := (c1.Hits - c0.Hits) + (c1.Misses - c0.Misses)
	p.put("engine.evaluated_per_node", float64(evaluated)/float64(nodes), "ratio", ops)
	p.put("engine.dedup_hit_ratio", float64(hits)/float64(nodes), "ratio", ops)
	p.put("engine.cache_hit_ratio", float64(c1.Hits-c0.Hits)/float64(max(lookups, 1)), "ratio", int(lookups))
	p.put("engine.cache_evictions_per_op", float64(c1.Evictions-c0.Evictions)/float64(ops), "count", ops)
	p.put("engine.cache_bytes", float64(c1.Bytes), "bytes", 1)
	return nil
}

// updates: Incremental.ApplyUpdates on the resident sessions, in the
// resident workload's batch sizes.
func (p *probe) updates(st *residentState) {
	var total time.Duration
	var toggles, dirty, evaluated int
	for _, s := range st.sessions {
		before := s.inc.Stats().Evaluated
		for b := 0; b < 8; b++ {
			ops := s.nextBatch()
			t0 := time.Now()
			dirty += s.inc.ApplyUpdates(ops)
			total += time.Since(t0)
			toggles += len(ops)
		}
		evaluated += s.inc.Stats().Evaluated - before
	}
	p.put("engine.update_ns", float64(total)/float64(toggles), "ns", toggles)
	p.put("engine.dirty_per_update", float64(dirty)/float64(toggles), "count", toggles)
	p.put("engine.repair_evaluated_per_update", float64(evaluated)/float64(toggles), "count", toggles)
}

// store: Put, Flush and the recovery scan of Open on a log of 20k records.
func (p *probe) store() error {
	const k = 20_000
	path := filepath.Join(p.e.dir, "probe.log")
	recs := make([]store.Record, k)
	for i := range recs {
		code := make([]byte, 48)
		p.rng.Read(code)
		recs[i] = store.Record{Decider: "deg<=4", Horizon: 3, Code: code, Verdict: i%3 != 0}
	}
	var put, flush, recover []float64
	for rep := 0; rep < 3; rep++ {
		os.Remove(path)
		st, err := store.Open(path, store.Options{QueueDepth: k})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, r := range recs {
			st.Put(r)
		}
		put = append(put, float64(time.Since(t0))/k)
		t0 = time.Now()
		if err := st.Flush(); err != nil {
			st.Close()
			return err
		}
		flush = append(flush, ms(time.Since(t0)))
		if drops := st.Stats().QueueDrops; drops > 0 {
			st.Close()
			return fmt.Errorf("store dropped %d of %d records", drops, k)
		}
		if err := st.Close(); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		t0 = time.Now()
		st, err = store.Open(path, store.Options{})
		if err != nil {
			return err
		}
		d := time.Since(t0)
		if got := st.Stats().Recovered; got != k {
			st.Close()
			return fmt.Errorf("store recovered %d of %d records", got, k)
		}
		if err := st.Close(); err != nil {
			return err
		}
		recover = append(recover, ms(d)/(float64(fi.Size())/(1<<20)))
	}
	p.put("store.put_ns", percentile(put, 50), "ns", 3*k)
	p.put("store.flush_ms", percentile(flush, 50), "ms", 3)
	p.put("store.recover_ms_per_mb", percentile(recover, 50), "ms/MiB", 3)
	return nil
}

// decided: a short low-rate burst of the serve mix against a fresh decided,
// read back through /statsz, which is also polled for the in-flight peak.
func (p *probe) decided() error {
	logPath := filepath.Join(p.e.dir, "probe-verdicts.log")
	if err := prewriteLog(logPath, p.e.seed); err != nil {
		return err
	}
	mix := newServeMix(p.e.seed)
	const dur = 3 * time.Second
	reqs := schedule(mix, p.rng, lowRate, dur)
	if err := mix.references(reqs); err != nil {
		return err
	}
	d, _, err := startDecided(p.e.decided, logPath)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	if err := c.warm(mix); err != nil {
		return err
	}
	inflight := 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if s, err := d.statsz(c.http); err == nil {
					inflight = max(inflight, s.Inflight)
				}
			}
		}
	}()
	res := c.step(reqs, lowRate, dur)
	close(stop)
	wg.Wait()
	if res.fail > 0 || res.skipped > 0 {
		return fmt.Errorf("decided burst: %d failed, %d skipped of %d", res.fail, res.skipped, len(reqs))
	}
	s, err := d.statsz(c.http)
	if err != nil {
		return err
	}
	// Latencies come from each response's elapsedMs: /statsz reports only
	// power-of-two histogram buckets.
	var client, server, trials []float64
	for _, r := range reqs {
		if r.key.class == "trials" {
			trials = append(trials, r.serverMs)
			continue
		}
		client = append(client, ms(r.latency))
		server = append(server, r.serverMs)
	}
	lookups := s.Cache.Hits + s.Cache.Misses
	p.put("decided.server_eval_p50_ms", percentile(server, 50), "ms", len(server))
	p.put("decided.server_eval_p99_ms", percentile(server, 99), "ms", len(server))
	p.put("decided.http_overhead_p50_ms", percentile(client, 50)-percentile(server, 50), "ms", len(client))
	p.put("decided.rejected", float64(s.Rejected), "count", 1)
	p.put("decided.deadlines", float64(s.Deadlines), "count", 1)
	p.put("decided.inflight_max", float64(inflight), "count", int(dur/(20*time.Millisecond)))
	p.put("decided.cache_hit_ratio", float64(s.Cache.Hits)/float64(max(lookups, 1)), "ratio", int(lookups))
	p.put("decided.cache_evictions", float64(s.Cache.Evictions), "count", 1)
	p.put("decided.trials_p50_ms", percentile(trials, 50), "ms", len(trials))
	if s.Store == nil {
		return fmt.Errorf("decided /statsz reports no store")
	}
	p.put("decided.store_appended", float64(s.Store.Appended), "count", 1)
	p.put("decided.store_queue_drops", float64(s.Store.QueueDrops), "count", 1)
	p.put("bench.gen_late_p99_ms", percentile(res.late, 99), "ms", len(res.late))
	return nil
}

// experiments: each Experiment.Run of one full E1–E16 pass.
func (p *probe) experiments() error {
	for _, x := range experiments.Registry() {
		t0 := time.Now()
		res, err := x.Run(experiments.Config{Seed: p.e.seed})
		d := time.Since(t0)
		if err != nil || !res.OK {
			return fmt.Errorf("%s: not OK (err=%v)", x.ID, err)
		}
		p.put("experiments."+x.ID+"_ms", ms(d), "ms", 1)
	}
	return nil
}
