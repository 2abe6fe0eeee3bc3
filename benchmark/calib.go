package main

import (
	"math"
	"sort"
	"time"
)

// On a shared virtual machine the speed of the host drifts by a fifth or
// more over minutes: the hypervisor takes CPU time, neighbours contend for
// caches and clock rates change. Host times are therefore converted to
// reference time: they are multiplied by refScale of the wall time of a
// fixed reference computation timed alongside them. A change of host speed
// slows both and cancels; a change of the program slows only the measured
// run. The human-readable output prints the reference's own wall time
// (ref_wall_ms), from which wall times follow.
//
// sim-suite and rt-large time the reference just before and after each
// pass and scale that pass. swarmd-jobs keeps both CPUs busy, so it can
// time the reference only while its clients pause: it measures in
// one-second slices, reads the reference between them, and scales the
// whole run by the median of those readings.

// refNS is the reference computation's duration in reference time: about
// its wall time on the 2-vCPU x86-64 virtual machine the benchmark was
// defined on, so reference times read close to wall times there.
const refNS = 2.6e6

// refWords sizes the reference table: 256 KiB, which stays in a core's
// private caches, so the reference measures the core's speed and the time
// it is given rather than the memory system a neighbour shares.
const refWords = 1 << 15

var refTable = make([]uint64, refWords)

// reference runs a fixed chain of dependent pseudo-random reads and writes
// over refTable and returns its wall time in nanoseconds.
func reference() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	i := uint64(0)
	for n := 0; n < 1<<18; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i = (i ^ x ^ refTable[i]) & (refWords - 1)
		refTable[i] += x
	}
	sink += i
	return float64(time.Since(t0).Nanoseconds())
}

// hostSpeed returns the median of three reference runs in nanoseconds.
func hostSpeed() float64 {
	xs := []float64{reference(), reference(), reference()}
	sort.Float64s(xs)
	return xs[1]
}

// passRefExp is how steeply the speed of sim-suite's and rt-large's passes
// follows the reference's. The reference stays in a core's private caches;
// the engines also lose what neighbours take of the shared caches, which
// rises and falls with the same host load. Over about fifty sim-suite runs
// on the 2-vCPU virtual machine the benchmark was defined on, a host phase
// that made the reference 10% faster made the simulator about 18% faster.
// With 1.5 in place of 1, ten-seed spreads of sim-suite's rate fell from
// 9-14% to 4-7% and rt-large's from 6-8% to 6%.
const passRefExp = 1.5

// jobsRefExp is the same for swarmd-jobs. Part of its job latency is the
// fixed poll interval, which no host speeds up, and its ten-seed spreads
// were 4-8% with exponent 1 but up to 10% with 1.5.
const jobsRefExp = 1

// refScale converts wall time measured while the reference took refWall
// nanoseconds to reference time, for a workload whose speed follows the
// reference's to the power exp.
func refScale(refWall, exp float64) float64 {
	return math.Pow(ratio(refNS, refWall), exp)
}
