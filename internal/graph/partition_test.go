package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

// partitionHosts builds the randomized host suite for one seed: a connected
// random graph, a cycle, a grid, and a sparse disconnected forest-ish host
// (Random with p=0 is a tree; we take two disjoint pieces via a relabel-free
// union is overkill — a path with an isolated tail suffices).
func partitionHosts(seed int64) []*Graph {
	n := 8 + int((seed%23+23)%23)
	return []*Graph{
		Random(n, 0.2, seed),
		Cycle(3 + n),
		Grid(3, 2+n/3),
		Path(n), // bridges make boundaries thin
	}
}

// TestPartitionCoversNodes checks that the shards partition the host, that
// each Owned(s) is strictly ascending and agrees with ShardOf — also for
// BFS-blocked shards, whose blocks of BFS order are not id ranges on random
// hosts and cycles.
func TestPartitionCoversNodes(t *testing.T) {
	bfsNotRange := false
	property := func(seed int64) bool {
		for _, g := range partitionHosts(seed) {
			for _, strat := range []PartitionStrategy{PartitionBFSBlocked, PartitionLevelContiguous} {
				for _, p := range []int{1, 2, 3, 5, 100} {
					pt := NewPartition(g, p, strat)
					seen := make([]int, g.N())
					for s := 0; s < pt.Shards(); s++ {
						own := pt.Owned(s)
						if len(own) == 0 {
							t.Logf("%v p=%d: empty shard %d", strat, p, s)
							return false
						}
						for i, v := range own {
							seen[v]++
							if pt.ShardOf(int(v)) != s {
								t.Logf("%v p=%d: ShardOf(%d) != %d", strat, p, v, s)
								return false
							}
							if i > 0 && own[i-1] >= v {
								t.Logf("%v p=%d: shard %d not strictly ascending at %d: %v", strat, p, s, i, own)
								return false
							}
						}
						if strat == PartitionBFSBlocked && int(own[len(own)-1]-own[0])+1 != len(own) {
							bfsNotRange = true
						}
					}
					for v, c := range seen {
						if c != 1 {
							t.Logf("%v p=%d: node %d owned %d times", strat, p, v, c)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
	if !bfsNotRange {
		t.Error("every BFS-blocked shard was an id range: the hosts do not exercise BFS order")
	}
}

func TestPartitionSubCSRUnionIsHost(t *testing.T) {
	property := func(seed int64) bool {
		for _, g := range partitionHosts(seed) {
			pt := NewPartition(g, 4, PartitionBFSBlocked)
			// Collect every (owner-row node, neighbour) arc from the sub-CSRs.
			type arc struct{ v, u int32 }
			var got []arc
			for s := 0; s < pt.Shards(); s++ {
				offsets, nbrs := pt.SubCSR(s)
				own := pt.Owned(s)
				if int(offsets[len(offsets)-1]) != len(nbrs) {
					t.Log("sub-CSR offsets do not close over neighbors")
					return false
				}
				for i, v := range own {
					for _, u := range nbrs[offsets[i]:offsets[i+1]] {
						got = append(got, arc{v, u})
					}
				}
			}
			var want []arc
			for v := 0; v < g.N(); v++ {
				for _, u := range g.Neighbors(v) {
					want = append(want, arc{int32(v), u})
				}
			}
			less := func(a []arc) func(i, k int) bool {
				return func(i, k int) bool {
					if a[i].v != a[k].v {
						return a[i].v < a[k].v
					}
					return a[i].u < a[k].u
				}
			}
			sort.Slice(got, less(got))
			sort.Slice(want, less(want))
			if len(got) != len(want) {
				t.Logf("arc multiset size %d, host has %d", len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					t.Logf("arc %d: %v vs %v", i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPartitionHaloFrontierBruteForce pins HaloFrontier(t) against the
// definition: for shard s, the nodes within distance t of some owned
// endpoint of a cross-shard edge, computed here by one full BFS per
// boundary node.
func TestPartitionHaloFrontierBruteForce(t *testing.T) {
	property := func(seed int64) bool {
		tr := NewTraversal()
		for _, g := range partitionHosts(seed) {
			for _, strat := range []PartitionStrategy{PartitionBFSBlocked, PartitionLevelContiguous} {
				pt := NewPartition(g, 3, strat)
				for _, radius := range []int{0, 1, 2, 4} {
					frontier := pt.HaloFrontier(radius)
					for s := 0; s < pt.Shards(); s++ {
						want := map[int32]bool{}
						for _, v := range pt.Owned(s) {
							cross := false
							for _, u := range g.Neighbors(int(v)) {
								if pt.ShardOf(int(u)) != s {
									cross = true
									break
								}
							}
							if !cross {
								continue
							}
							dist := tr.BFSFrom(g, int(v))
							for u, d := range dist {
								if d >= 0 && int(d) <= radius {
									want[int32(u)] = true
								}
							}
						}
						got := frontier[s]
						if len(got) != len(want) {
							t.Logf("%v radius=%d shard=%d: |halo|=%d want %d", strat, radius, s, len(got), len(want))
							return false
						}
						for i, v := range got {
							if !want[v] {
								t.Logf("%v radius=%d shard=%d: unexpected halo node %d", strat, radius, s, v)
								return false
							}
							if i > 0 && got[i-1] >= v {
								t.Log("halo not strictly ascending")
								return false
							}
						}
						// Depth column must match true BFS distance to the boundary.
						nodes, depth := pt.Halo(s, radius)
						for i, v := range nodes {
							best := int32(-1)
							for _, b := range pt.Boundary(s) {
								dist := tr.BFSFrom(g, int(b))
								if d := dist[v]; d >= 0 && (best < 0 || d < best) {
									best = d
								}
							}
							if depth[i] != best {
								t.Logf("shard=%d node=%d: depth %d, want %d", s, v, depth[i], best)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
