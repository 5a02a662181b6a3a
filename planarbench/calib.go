package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The shared machine the benchmark runs on changes speed from minute to
// minute: a fixed single-threaded loop takes up to twice as long while a
// neighbour is busy, and the process's own CPU time grows with it, so
// the slowdown cannot be told apart from inside. A raw time then
// measures the machine as much as the program. Every end-to-end timing
// except setup_s is therefore reported in units of refKernel: a fixed
// piece of work that does not touch the program under test, timed right
// before and right after the work it normalizes, while no request is in
// flight.

// refKernel is the reference work: a sort of 16k integers, then 8k
// inserts into an open-addressing table with a fixed hash. Its buffers
// are allocated once and stay in the core's own caches, so a pass
// allocates nothing, never paces the collector, takes the same time
// whatever ran before it, and does the same work in every process (a Go
// map would hash with a per-process seed). A pointer chase through
// 8 MiB, tried first, took 2 to 6 passes to warm up again after every
// segment.
type refKernel struct {
	src  []int64
	buf  []int64
	keys []int64 // 0 = empty slot
	vals []int32
	sink int64
}

const (
	refSortLen   = 1 << 14
	refTableBits = 14
	// refBurst is how many passes one calibration times.
	refBurst = 60
)

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(20200803))
	k := &refKernel{
		src:  make([]int64, refSortLen),
		buf:  make([]int64, refSortLen),
		keys: make([]int64, 1<<refTableBits),
		vals: make([]int32, 1<<refTableBits),
	}
	for i := range k.src {
		k.src[i] = rng.Int63() | 1
	}
	return k
}

func (k *refKernel) pass() {
	const mask = 1<<refTableBits - 1
	copy(k.buf, k.src)
	slices.Sort(k.buf)
	clear(k.keys)
	for i := 0; i < refSortLen/2; i++ {
		x := k.buf[2*i]
		h := uint64(x) * 0x9E3779B97F4A7C15 >> (64 - refTableBits)
		for k.keys[h] != 0 && k.keys[h] != x {
			h = (h + 1) & mask
		}
		k.keys[h], k.vals[h] = x, int32(i)
	}
	k.sink += int64(k.vals[k.buf[0]&mask])
}

// burst collects the program's garbage, so no collection runs beside
// the passes, and returns the mean time of refBurst passes in ms. It is
// a mean over about 100 ms, not a median of passes: a pass is shorter
// than the scheduler's time slice, so on a contended core most passes
// run uninterrupted, and their median would not see the share of the
// core the process lost while the daemon, whose requests span many
// slices, pays for it in full.
func (k *refKernel) burst() float64 {
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < refBurst; i++ {
		k.pass()
	}
	return ms(time.Since(t0)) / refBurst
}
