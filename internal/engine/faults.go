package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/graph"
)

// This file is the engine's crash-hardening layer: every decider invocation
// runs inside a recover guard with a bounded retry-and-backoff loop, so a
// panicking decider (or an injected crash from Options.Faults) costs one
// node's verdict at worst — recorded as a VerdictError on the Outcome —
// instead of killing the whole process. The guard is compiled into every
// scheduler's hot path; fault-free overhead is one nil check, an
// open-coded defer and one closure call per node, gated ≤5% by the CI
// benchgates.

// guardedVerdict is the engine's one recover-and-retry path: it runs body
// for node v, retrying up to j.maxAttempts times when an attempt panics
// (injected via Options.Faults or a genuine panic). ok reports whether a
// verdict was produced; on false the node has been recorded in j.errs and
// the caller must not treat the returned No as a decision. Crash and retry
// counts go to the worker's tally.
func (j *job) guardedVerdict(v int, t *tally, body func() Verdict) (Verdict, bool) {
	var cause error
	for a := 0; a < j.maxAttempts; a++ {
		if a > 0 {
			t.retries++
			j.backoffSleep(v, a)
		}
		verdict, err := j.attempt(v, a, body)
		if err == nil {
			return verdict, true
		}
		t.crashes++
		cause = err
	}
	j.recordErr(VerdictError{Node: v, Attempts: j.maxAttempts, Cause: cause})
	return No, false
}

// attempt is one guarded attempt of guardedVerdict: the recover boundary.
func (j *job) attempt(v, attempt int, body func() Verdict) (verdict Verdict, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if j.faults != nil && j.faults.CrashDecide(v, attempt) {
		panic("injected worker crash")
	}
	return body(), nil
}

// evalNode is the guarded pipeline for one node on the host: extract the
// view, consult the dedup cache, decide. Extraction runs inside the guard
// too — a decider receiving a view is not the only thing that can panic on a
// corrupted instance.
func (j *job) evalNode(x *graph.ViewExtractor, v int, t *tally) (Verdict, bool) {
	return j.guardedVerdict(v, t, func() Verdict {
		return cachedVerdict(j, x.At(v, j.dec.Horizon), v, t)
	})
}

// retryBackoffCap bounds the exponential retry backoff: beyond it further
// attempts wait the capped duration (with jitter) instead of doubling on —
// a node with a persistently crashing decider must not stall its worker for
// seconds before the VerdictError is recorded.
const retryBackoffCap = 10 * time.Millisecond

// backoffSleep sleeps before re-attempt number a (a >= 1) of node v's
// decide. A non-positive backoff disables sleeping (j.backoff is defaulted
// at job construction; negative means "no backoff", for tests).
func (j *job) backoffSleep(v, a int) {
	if j.backoff <= 0 {
		return
	}
	time.Sleep(backoffDuration(j.backoff, j.opts.Seed, v, a))
}

// backoffDuration is the deterministic capped-exponential-with-jitter retry
// schedule: base doubles per attempt up to retryBackoffCap, then a
// splitmix64 draw off (seed, node, attempt) — the same stream family as the
// fault/trial seeds — picks a jitter point in [d/2, d]. Retries under a
// seeded fault plan therefore remain exactly replayable: the same seed
// yields the same sleeps, while distinct nodes retrying concurrently (a
// crash-burst fault plan) spread out instead of thundering in lockstep.
func backoffDuration(base time.Duration, seed int64, node, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= retryBackoffCap {
			break
		}
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	half := uint64(d / 2)
	h := mix64(mix64(uint64(seed)+golden64*uint64(node+1)) + golden64*uint64(attempt))
	return time.Duration(half + h%(half+1))
}

// recordErr appends a node failure under the job's error lock (workers
// record concurrently; outcome() sorts).
func (j *job) recordErr(e VerdictError) {
	j.errMu.Lock()
	j.errs = append(j.errs, e)
	j.errMu.Unlock()
}

// sortVerdictErrors orders failures by node index so Outcome.Errs is
// deterministic across worker counts and schedulers.
func sortVerdictErrors(errs []VerdictError) {
	sort.Slice(errs, func(i, k int) bool { return errs[i].Node < errs[k].Node })
}
