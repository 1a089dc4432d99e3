package main

import "time"

// The machine a benchmark runs on changes speed under it: on the shared
// 2-CPU host the benchmark was built on, one fixed loop takes 50 to 88 ms
// depending on the minute, in phases of ten seconds and more, and one
// fixed batch of 60 simulation points took 9.3 to 14.5 s within five
// minutes. No statistic over one run removes a phase that lasts the whole
// run. What removes it is a yardstick timed beside the work: the reference
// run below is fixed code of the benchmark's own, which no change to the
// program can speed up or slow down, and each segment of a pass is scaled
// by the reference runs around it. Over those five minutes the batch's
// passes spread 0.128 (quartile distance over median) unscaled and 0.033
// scaled, and the medians of three passes 0.165 and 0.021.

// A reference run is four small loops, each about 6 ms on that host,
// because the host's neighbours do not slow every kind of code alike; the
// sum of the four tracked the simulator's slowdowns better than any one.
const (
	refTableWords = 1 << 20 // 8 MB table: random read-modify-writes miss the cache
	refTableIters = 1_000_000
	refSmallWords = 1 << 16 // 256 KB table: data-dependent branches
	refSmallIters = 600_000
	refMapKeys    = 1 << 16 // Go map updates
	refMapIters   = 150_000
	refChaseWords = 1 << 20 // 4 MB cycle: a dependent pointer chase
	refChaseIters = 100_000
)

// refNominalS is a reference run's typical time on the machine the
// benchmark was built on. Scaled times are host seconds at the speed at
// which one reference run takes refNominalS.
const refNominalS = 0.025

// refWindow is how many reference runs on each side of a segment's own two
// set its speed: the median of 2+2*refWindow runs, which spans about two
// seconds, since one 25 ms run is itself noisy.
const refWindow = 2

// calibrator holds the reference run's tables. They are built once, so a
// reference run allocates nothing and adds nothing to a pass's alloc_mb.
type calibrator struct {
	table []uint64
	small []uint32
	m     map[uint64]uint64
	next  []uint32
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		table: make([]uint64, refTableWords),
		small: make([]uint32, refSmallWords),
		m:     make(map[uint64]uint64, refMapKeys),
		next:  make([]uint32, refChaseWords),
	}
	for i := uint64(0); i < refMapKeys; i++ {
		c.m[i*2654435761] = i
	}
	// One random cycle through every index of next (Sattolo's shuffle).
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	x := uint64(99)
	for i := len(c.next) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	c.run() // first touch of the tables
	return c
}

// run times one reference run.
func (c *calibrator) run() float64 {
	start := time.Now()
	x := c.sink | 1
	for i := 0; i < refTableIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.table[x>>44] += x
	}
	y := x | 7
	for i := 0; i < refSmallIters; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
		j := y & (refSmallWords - 1)
		if c.small[j]&1 == 0 {
			c.small[j] += uint32(y)
		} else {
			c.small[(j*7)&(refSmallWords-1)] ^= uint32(y >> 3)
		}
	}
	for i := 0; i < refMapIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.m[(x>>48)*2654435761] += x
	}
	p := uint32(y) & (refChaseWords - 1)
	for i := 0; i < refChaseIters; i++ {
		p = c.next[p]
	}
	c.sink = x + y + uint64(p) + uint64(c.small[3])
	return time.Since(start).Seconds()
}

// clock times a pass in segments. With a calibrator it runs a reference
// run before the first segment and after every segment; the reference
// runs are not part of the pass's time. Without one it only sums the
// segments.
type clock struct {
	cal   *calibrator
	start time.Time
	segs  []time.Duration
	refs  []float64 // every reference run, in seconds
}

// begin opens the first segment.
func (c *clock) begin() {
	if c.cal != nil {
		c.refs = append(c.refs, c.cal.run())
	}
	c.start = time.Now()
}

// lap closes the open segment and opens the next.
func (c *clock) lap() {
	c.segs = append(c.segs, time.Since(c.start))
	if c.cal != nil {
		c.refs = append(c.refs, c.cal.run())
	}
	c.start = time.Now()
}

// wall is the host time of the closed segments.
func (c *clock) wall() time.Duration {
	var w time.Duration
	for _, s := range c.segs {
		w += s
	}
	return w
}

// scaled returns each closed segment's host seconds at reference speed:
// segment i, which ran between reference runs i and i+1, is scaled by the
// median of the runs from i-refWindow to i+1+refWindow. Without a
// calibrator it returns nil.
func (c *clock) scaled() []float64 {
	if c.cal == nil {
		return nil
	}
	out := make([]float64, len(c.segs))
	for i, s := range c.segs {
		near := c.refs[max(0, i-refWindow):min(len(c.refs), i+2+refWindow)]
		out[i] = s.Seconds() * refNominalS / median(near)
	}
	return out
}
