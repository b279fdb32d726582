package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Scheduler is an evaluation backend. All schedulers produce identical
// per-node verdicts for contract-abiding deciders; they differ in cost model
// and fidelity (the message-passing backend actually runs the synchronous
// protocol). The interface is closed over this package: backends share the
// job's internal buffers.
type Scheduler interface {
	// Name identifies the backend in stats and reports.
	Name() string
	// run evaluates the job, filling j.verdicts (when present) and j.stats,
	// and reports global acceptance.
	run(j *job) bool
}

// Sequential evaluates nodes in index order on the calling goroutine.
var Sequential Scheduler = seqScheduler{}

// Sharded evaluates nodes on a worker pool with one batched extractor per
// worker, capped at min(GOMAXPROCS, n) workers; small instances run inline
// so no idle goroutines are ever spawned.
var Sharded Scheduler = shardedScheduler{}

// MessagePassing evaluates by actually running the synchronous flooding
// protocol with one goroutine per node — the operational definition of a
// local algorithm, kept as a backend so its equivalence with the functional
// backends stays continuously tested.
var MessagePassing Scheduler = mpScheduler{}

// ShardedWith returns a Sharded scheduler with an explicit worker cap
// (still additionally capped at n).
func ShardedWith(workers int) Scheduler {
	if workers < 1 {
		panic("engine: worker count must be positive")
	}
	return shardedScheduler{workers: workers}
}

// shardedMinNodes is the instance size below which the sharded scheduler
// runs inline: dispatching a handful of views to a pool costs more than
// deciding them.
const shardedMinNodes = 64

// dedupMaxViewNodes bounds the views the deduplication cache considers.
// The canonical code is the cache key, and its individualisation-refinement
// search can explode on large symmetric views (the Section 3 pivot
// neighbourhoods are the canonical offender); large views also repeat far
// less often than the small structured ones dedup exists for. Oversized
// views are decided directly.
const dedupMaxViewNodes = 64

// cachedVerdict looks up / fills the dedup cache around a decide call. The
// cache handles its own striped locking, so every worker shares this path;
// counters go to the worker's own tally.
func cachedVerdict(j *job, view *graph.View, v int, t *tally) Verdict {
	if j.cache == nil || view.N() > dedupMaxViewNodes {
		t.evaluated++
		return j.decideView(view, v)
	}
	// First level: the raw-structure key — one linear pass over the view's
	// flat CSR arena. Structured instances repeat neighbourhoods
	// byte-for-byte (extraction order is a function of structure), so the
	// common case never pays for a canonical code.
	raw := view.RawCode()
	if verdict, ok := j.cache.lookupRaw(j.dec.Name, j.dec.Horizon, raw); ok {
		t.hits++
		return verdict
	}
	// Second level: the canonical code, catching views that repeat only up
	// to isomorphism. The raw bytes live in their own workspace buffer, so
	// they survive the canonical computation below and can seed the raw
	// layer afterwards.
	code := view.CanonCode()
	verdict, computed, stored := j.cache.lookupOrCompute(j.dec.Name, j.dec.Horizon, code,
		func() Verdict { return j.decideView(view, v) })
	if computed {
		t.evaluated++
	} else {
		t.hits++
	}
	if stored {
		t.inserted++
	}
	j.cache.storeRaw(j.dec.Name, j.dec.Horizon, raw, verdict)
	return verdict
}

// tally is one worker's share of a job's counters. Workers count into their
// own tally without synchronisation and fold it into the job once, when they
// finish.
type tally struct {
	evaluated, hits, inserted, crashes, retries, incomplete int
	// messages and units are the message-passing backends' traffic: sends
	// and the node records they carried.
	messages, units int
}

// fold adds a finished worker's tally to the job's stats. It is the one
// place worker counters meet, so concurrent workers serialise here.
func (j *job) fold(t *tally) {
	j.statsMu.Lock()
	j.stats.Evaluated += t.evaluated
	j.stats.DedupHits += t.hits
	j.stats.Crashes += t.crashes
	j.stats.Retries += t.retries
	j.stats.IncompleteViews += t.incomplete
	j.stats.Messages += t.messages
	j.stats.KnowledgeUnits += t.units
	j.inserted += t.inserted
	j.statsMu.Unlock()
}

// finishCacheStats records the cache-side stats after a run.
func (j *job) finishCacheStats() {
	if j.cache == nil {
		return
	}
	j.stats.DistinctViews = j.inserted
	j.stats.CacheSize = j.cache.Len()
	j.stats.CacheShared = j.shared
}

// workerCount resolves a pool size: want <= 0 means GOMAXPROCS, and a pool
// never has more workers than items.
func workerCount(want, items int) int {
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	return min(want, items)
}

// fanOut runs body(w) for every worker index w in [0, workers) and returns
// once all have finished. A single worker runs inline on the calling
// goroutine, so one-worker runs never spawn.
func fanOut(workers int, body func(w int)) {
	if workers <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			body(w)
		}()
	}
	wg.Wait()
}

type seqScheduler struct{}

func (seqScheduler) Name() string { return "sequential" }

func (seqScheduler) run(j *job) bool { return j.runNodes(1, nil) }

type shardedScheduler struct {
	// workers caps the pool; 0 means GOMAXPROCS.
	workers int
}

func (shardedScheduler) Name() string { return "sharded" }

func (s shardedScheduler) run(j *job) bool { return j.runNodes(s.poolSize(j.n), nil) }

// poolSize is the pool for a sweep over items nodes: sub-threshold sweeps
// run on one worker, larger ones on the configured cap.
func (s shardedScheduler) poolSize(items int) int {
	if items < shardedMinNodes {
		return 1
	}
	return workerCount(s.workers, items)
}

// runNodes is the node loop behind Sequential, Sharded, every EvalBatch
// instance and ShardedMP's one-shard case: workers claim node indices from a
// shared cursor (in index order on one worker) and decide them through the
// guarded evalNode pipeline until the nodes run out or the job stops. x,
// when non-nil, is worker 0's extractor, already bound to the job's host
// (EvalBatch passes one Reset from the previous instance); the other workers
// build their own.
func (j *job) runNodes(workers int, x *graph.ViewExtractor) bool {
	var next atomic.Int64
	fanOut(workers, func(w int) {
		xw := x
		if w > 0 || xw == nil {
			xw = j.extractor()
		}
		var t tally
		for {
			v := int(next.Add(1)) - 1
			if v >= j.n || j.stopped() {
				break
			}
			if verdict, ok := j.evalNode(xw, v, &t); ok {
				j.record(v, verdict)
			}
		}
		j.fold(&t)
	})
	j.stats.Workers = workers
	j.finishCacheStats()
	return j.settle()
}

// stopped reports that a node loop should claim no further nodes: a reject
// is known under EarlyExit, or the evaluation's context is done.
func (j *job) stopped() bool {
	return j.opts.EarlyExit && j.rejected.Load() || j.checkCanceled()
}

// record commits node v's verdict. A node whose every attempt crashed is
// never recorded: it is in j.errs, neither an accept nor a reject.
func (j *job) record(v int, verdict Verdict) {
	if j.verdicts != nil {
		j.verdicts[v] = verdict
	}
	if verdict == No {
		j.rejected.Store(true)
	}
}

// settle closes a run: it accepted iff no node rejected, and it stopped
// early iff EarlyExit was on and some node did.
func (j *job) settle() bool {
	accepted := !j.rejected.Load()
	j.stats.EarlyExit = j.opts.EarlyExit && !accepted
	return accepted
}
