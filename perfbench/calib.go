package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// calibration is a fixed reference computation that shares no code with the
// program: radius-4 balls on a benchmark-owned graph, each followed by the
// collection and sorting of the ball's induced neighbour lists, the same mix
// of stamped BFS, short appends and small sorts as view extraction.
//
// The host this benchmark was built on is a 2-core share of a busy machine,
// and other tenants slow the same operation by up to 1.75x for minutes at a
// time; no statistic of wall time taken within one run hides that. Sampling
// the calibration after each operation of a run and dividing the op time by
// its median gives op_p50_rel, which such slowdowns move far less: over five
// runs of the same code, the quartile spread of the op median was 0.09
// (sweep) and 0.12 (resident) of its median and that of op_p50_rel 0.04 and
// 0.05. Samples are taken only after a forced collection, with no program
// call in flight, so a change to the program moves only the numerator.
type calibration struct {
	off, nbr          []int32
	stamp             []uint32
	epoch             uint32
	ball, front, next []int32
	out               []int32
	sink              int
}

const (
	calibNodes = 1 << 16
	calibRoots = 300 // balls per sample, about 1.5 ms on the host above
)

// newCalibration builds the reference graph, a cycle with calibNodes/2
// chords drawn from a fixed seed, and grows the scratch buffers once so
// that no sample allocates.
func newCalibration() *calibration {
	rng := rand.New(rand.NewSource(1))
	adj := make([][]int32, calibNodes)
	for v := range adj {
		adj[v] = append(adj[v], int32((v+1)%calibNodes), int32((v+calibNodes-1)%calibNodes))
	}
	for i := 0; i < calibNodes/2; i++ {
		a, b := rng.Intn(calibNodes), rng.Intn(calibNodes)
		adj[a] = append(adj[a], int32(b))
		adj[b] = append(adj[b], int32(a))
	}
	c := &calibration{stamp: make([]uint32, calibNodes), off: []int32{0}}
	for _, row := range adj {
		c.nbr = append(c.nbr, row...)
		c.off = append(c.off, int32(len(c.nbr)))
	}
	c.run()
	return c
}

// sample collects garbage, then times n samples, in milliseconds, after an
// untimed one that brings the reference graph back into the caches.
func (c *calibration) sample(n int) []float64 {
	runtime.GC()
	c.run()
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = c.run()
	}
	return xs
}

// run times one sample and returns it in milliseconds.
func (c *calibration) run() float64 {
	t0 := time.Now()
	for r := 0; r < calibRoots; r++ {
		v := int32(r * 7919 % calibNodes)
		c.epoch++
		c.stamp[v] = c.epoch
		c.ball = append(c.ball[:0], v)
		c.front = append(c.front[:0], v)
		for d := 0; d < 4; d++ {
			c.next = c.next[:0]
			for _, w := range c.front {
				for _, u := range c.nbr[c.off[w]:c.off[w+1]] {
					if c.stamp[u] != c.epoch {
						c.stamp[u] = c.epoch
						c.next = append(c.next, u)
						c.ball = append(c.ball, u)
					}
				}
			}
			c.front, c.next = c.next, c.front
		}
		c.out = c.out[:0]
		for _, w := range c.ball {
			start := len(c.out)
			for _, u := range c.nbr[c.off[w]:c.off[w+1]] {
				if c.stamp[u] == c.epoch {
					c.out = append(c.out, u)
				}
			}
			slices.Sort(c.out[start:])
		}
		c.sink += len(c.out)
	}
	return ms(time.Since(t0))
}
