package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// Message-passing benchmarks: the flat sorted-row knowledge machinery (the
// per-round merge/snapshot discipline that replaced per-edge maps) and the
// sharded halo-exchange runtime against the per-node flooding protocol.

// BenchmarkMPRound pins the allocation discipline of the round machinery:
// one op is a full t-round synchronous gather on a cycle, simulated
// sequentially so goroutine scheduling stays out of the measurement. The
// double-buffered merge reuses its arenas, so allocs/op is dominated by the
// per-round snapshots plus amortised arena growth — linear in n·t, not
// quadratic in merged knowledge volume. The CI gate pins allocs/op at
// 40000 (~18 per node·round; the per-edge map representation this replaced
// allocated per merged edge and blew through that bound several times over).
func BenchmarkMPRound(b *testing.B) {
	const n, t = 512, 4
	l := graph.UniformlyLabeled(graph.Cycle(n), "u")
	j, err := newJob(cheapDecider(t), l, nil, Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufs := make([]*knowledgeBuf, n)
		for v := range bufs {
			bufs[v] = newNodeKnowledge(j, v, v)
		}
		snaps := make([]*knowledge, n)
		for r := 0; r < t; r++ {
			for v := range bufs {
				snaps[v] = bufs[v].snapshot()
			}
			for v := 0; v < n; v++ {
				for _, u := range l.G.Neighbors(v) {
					bufs[v].absorb(snaps[u])
				}
			}
		}
	}
}

// BenchmarkMPCycle is the sharded-vs-legacy gate pair on the issue's pinned
// workload: a uniform cycle with n=10^5 and horizon 8. The legacy arm runs
// the per-node flooding protocol (n goroutines, per-edge channels, radius-t
// snapshot gathering); the sharded arm partitions the cycle, exchanges only
// delta-encoded halo rings, and evaluates on shard-local extractors. CI
// gates sharded ≤ 0.5× legacy ns/op in the same artifact.
func BenchmarkMPCycle(b *testing.B) {
	l := graph.UniformlyLabeled(graph.Cycle(100_000), "u")
	dec := cheapDecider(8)
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := EvalOblivious(dec, l, Options{Scheduler: MessagePassing})
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := EvalOblivious(dec, l, Options{Scheduler: ShardedMP})
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	})
}

// BenchmarkMPShards sweeps the shard count on the same workload — the
// shards-vs-throughput curve of the README's sharded tour. One shard has no
// boundary, so it skips the partition, the sub-host and the exchange and
// runs the Sequential loop on the host (its time is Sequential's); the
// interesting scaling question is how the halo-exchange and per-eval setup
// cost grows against the evaluation parallelism won.
func BenchmarkMPShards(b *testing.B) {
	l := graph.UniformlyLabeled(graph.Cycle(100_000), "u")
	dec := cheapDecider(8)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := EvalOblivious(dec, l, Options{Scheduler: ShardedMPWith(p)})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
}
