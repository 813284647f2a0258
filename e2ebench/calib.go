package main

import (
	"fmt"
	"sync"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine,
// and other tenants move its speed by 20–40% over minutes: the same
// suite build takes 280 ms in one minute and 550 ms some minutes later,
// and every other CPU-bound step moves with it. No statistic over a
// one-minute run takes that out. So every timing the benchmark reports
// is scaled to a fixed reference speed, measured as it goes: refKernel,
// a fixed piece of work that is part of the benchmark and not of the
// program, runs between the timed operations on as many cores as they
// use, and an operation's wall time is multiplied by refKernelMs over
// the kernel's measured time around it. Over seven-minute stretches of
// such drift, the quartile spread of one-minute medians was 3% or less
// for scaled suite builds and engine runs against 9–37% for the raw
// ones. The raw values are printed beside the scaled ones.

// refKernelMs defines the reference speed: the speed at which refKernel
// takes this long. It is close to the kernel's time on the reference
// box (a 2-vCPU Xeon VM at 2.0 GHz), so scaled times read close to raw.
const refKernelMs = 20.0

// kernelIters is one kernel copy's fixed amount of work.
const kernelIters = 4_000_000

// kernelTables are the kernel copies' working sets, 1 MiB each, resident
// in L2; kernelSinks keep their results live.
var (
	kernelTables [][]uint32
	kernelSinks  []uint32
)

// refKernel runs copies of the kernel at once, one per goroutine, and
// returns the wall time until the last one finishes. The timed
// operations keep nproc workers busy and wait for the slowest, and so
// does the kernel with copies = nproc; one copy on one core followed the
// builds less closely (a 7% spread of one-minute medians against 3%).
func refKernel(copies int) time.Duration {
	for len(kernelTables) < copies {
		kernelTables = append(kernelTables, make([]uint32, 1<<18))
		kernelSinks = append(kernelSinks, 0)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernelSinks[c] = kernelCopy(kernelTables[c])
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// kernelCopy runs kernelIters steps of a xorshift generator, each a
// dependent load and store in table and a data-dependent branch. It does
// not allocate, so it neither triggers nor assists the garbage
// collector.
func kernelCopy(table []uint32) uint32 {
	x := uint64(88172645463325252)
	var acc uint32
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(table)-1)
		acc += table[j]
		table[j] = acc ^ uint32(x)
		if x&7 == 3 {
			acc++
		}
	}
	return acc
}

// speedScales turns kernel times k[0..n] into n scale factors, one per
// segment of operations: k[i] ran just before segment i and k[i+1]
// just after it. A segment's factor is refKernelMs over the median of
// the kernel runs before and after it and the one after that (or before
// that, for the last), so that one kernel run slowed by a preemption
// does not rescale a segment on its own.
func speedScales(k []time.Duration) []float64 {
	n := len(k) - 1
	f := make([]float64, n)
	for i := range f {
		lo := min(i, max(n-2, 0))
		med := median([]float64{ms(k[lo]), ms(k[min(lo+1, n)]), ms(k[min(lo+2, n)])})
		f[i] = refKernelMs / med
	}
	return f
}

// scaled multiplies each of xs, one per segment, by its segment's
// factor from speedScales(k).
func scaled(xs []float64, k []time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, f := range speedScales(k) {
		out[i] = f * xs[i]
	}
	return out
}

// setSetup records setup_s as the median of the set-up times (s)
// scaled to the reference speed; k holds the kernel runs around them.
func (r *report) setSetup(secs []float64, k []time.Duration, what string) {
	r.set("setup_s", median(scaled(secs, k)), fmt.Sprintf("(median of %d: %s, at reference speed; raw %.3f s)", len(secs), what, median(secs)))
}
