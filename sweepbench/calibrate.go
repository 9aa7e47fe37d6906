package main

import (
	"sync"
	"time"
)

// A shared host runs the benchmark faster or slower by tens of percent
// for minutes at a time, as other tenants come and go. An untraced run
// therefore times a fixed calibration kernel — benchmark code that no
// change to the program touches — before each of its sweeps, and scales
// its host-time figures by how fast the kernel ran in that run against
// calReferenceSeconds. A change to the program moves the sweeps and not
// the kernel, so the scaled figures still show it in full; a slow spell
// of the host moves both, and mostly cancels.

// calReferenceSeconds is about the kernel's median time on the 2-vCPU VM
// the benchmark was tuned on (Intel Xeon, 2 workers); the scaled figures
// are host times at that speed. It is a fixed unit, not a measurement to
// refresh.
const calReferenceSeconds = 0.2

// Kernel shape: the float part convolves a probability vector with a
// smoothing kernel, as a Sprout forecast step does; the memory part reads
// a table larger than any cache a worker can hold to itself, as the
// packet path's pointer-heavy state does.
const (
	calBins     = 256
	calRadius   = 24
	calSteps    = 12000
	calTableLen = 8 << 20 // uint32s: 32 MiB
	calReads    = 2 << 20
)

var (
	calTableOnce sync.Once
	calTable     []uint32
	calSink      []float64
)

// calibrate runs the kernel once on each of workers goroutines at the same
// time, as the sweep's workers run, and returns the wall seconds taken.
func calibrate(workers int) float64 {
	calTableOnce.Do(func() {
		calTable = make([]uint32, calTableLen)
		x := uint32(1)
		for i := range calTable {
			x = x*1664525 + 1013904223
			calTable[i] = x
		}
	})
	calSink = make([]float64, max(1, workers))
	start := time.Now()
	var wg sync.WaitGroup
	for g := range calSink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calSink[g] = calKernel(uint64(g + 1))
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// calKernel is the fixed work one worker does; its result only keeps the
// compiler from removing the work.
func calKernel(seed uint64) float64 {
	cur := make([]float64, calBins+2*calRadius)
	next := make([]float64, len(cur))
	k := make([]float64, 2*calRadius+1)
	for i := range k {
		k[i] = 1 / float64(len(k))
	}
	cur[calRadius+calBins/2] = 1
	sum := 0.0
	for s := 0; s < calSteps; s++ {
		for i := calRadius; i < calRadius+calBins; i++ {
			w := cur[i-calRadius : i+calRadius+1]
			var a0, a1, a2, a3 float64
			for j := 0; j+3 < len(k); j += 4 {
				a0 += w[j] * k[j]
				a1 += w[j+1] * k[j+1]
				a2 += w[j+2] * k[j+2]
				a3 += w[j+3] * k[j+3]
			}
			next[i] = a0 + a1 + a2 + a3 + w[len(k)-1]*k[len(k)-1] + 1e-12
		}
		cur, next = next, cur
		sum += cur[calRadius+calBins/2]
	}
	x, acc := seed, uint64(0)
	for r := 0; r < calReads; r++ {
		x = x*6364136223846793005 + 1442695040888963407
		acc += uint64(calTable[(x>>33)%calTableLen])
	}
	return sum + float64(acc&1)
}

// calibrated scales a host-time figure measured while the kernel took
// calSeconds (the run's median) to the reference speed.
func calibrated(v, calSeconds float64) float64 {
	return v * calReferenceSeconds / calSeconds
}
