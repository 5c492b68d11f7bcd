package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: over minutes its speed
// drifts by a quarter or more, and every timing of a run drifts with
// it, even within one interval of a few seconds. A speed gauge measures
// that drift with a fixed reference kernel (code of the benchmark's
// own, untouched by any change to the program), read before and after
// each set-up and each measured chunk of operations (a fraction of a
// second), and scales that set-up's or chunk's timings by the mean of
// the two readings to a host on which the kernel takes
// refKernelSeconds. A change to the program moves the scaled
// figures exactly as it moves the raw ones; a slow spell of the host
// slows the kernel about as much as the program and cancels out.
//
// The kernel mixes float math and a sort over a buffer that fits in a
// core's L2 cache with a streaming pass over a buffer twice that size;
// of the kernels tried (perfbench/README.md, "Speed gauge"), this mix
// slowed down in step with the program.

// refKernelSeconds is the reference kernel's time on the reference
// host: about its median on the 2-vCPU Xeon VM the benchmark was built
// on.
const refKernelSeconds = 0.005

// gaugeReps is how many kernel samples the gauge takes each time it
// reads (around every set-up and every measured chunk of operations);
// the reads take about 3% of a run.
const gaugeReps = 2

// Kernel buffer lengths: sortLen float64s (160 KiB) for the math and
// sort, streamLen float64s (4 MiB) for the streaming pass.
const (
	sortLen   = 20000
	streamLen = 1 << 19
)

// speedGauge samples the reference kernel.
type speedGauge struct {
	sortBuf, streamBuf []float64
	reps               []float64
	readings           []float64 // median kernel seconds of each read
	sink               float64
}

// read runs the kernel gaugeReps times and returns the scale that
// takes a time measured next to it to the reference host:
// refKernelSeconds over the median kernel time. Times are multiplied
// by the scale and rates divided by it.
func (g *speedGauge) read() float64 {
	if g.sortBuf == nil {
		// Off the Go heap, so the buffers do not change when the
		// program's garbage collector runs.
		mem, err := syscall.Mmap(-1, 0, 8*(sortLen+streamLen), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("speed gauge: mmap: %v", err))
		}
		all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), sortLen+streamLen)
		g.sortBuf, g.streamBuf = all[:sortLen], all[sortLen:]
		for i := range g.streamBuf {
			g.streamBuf[i] = float64(i%977) * 0.5
		}
	}
	g.reps = g.reps[:0]
	for k := 0; k < gaugeReps; k++ {
		start := time.Now()
		g.sink += refKernel(g.sortBuf, g.streamBuf)
		g.reps = append(g.reps, time.Since(start).Seconds())
	}
	k := median(g.reps)
	g.readings = append(g.readings, k)
	return refKernelSeconds / k
}

// refKernel is the fixed reference work: fill sortBuf with float math
// on a xorshift stream and sort it, then sum streamBuf three times. It
// allocates nothing, so it adds no garbage-collector work to the run.
func refKernel(sortBuf, streamBuf []float64) float64 {
	x := uint64(88172645463325252)
	for i := range sortBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sortBuf[i] = math.Log(float64(x%1000+1)) * math.Exp(float64(x%7)/7)
	}
	sort.Float64s(sortBuf)
	s := sortBuf[len(sortBuf)/2]
	for pass := 0; pass < 3; pass++ {
		for _, v := range streamBuf {
			s += v * 1.0001
		}
	}
	return s
}
