package main

import (
	"compress/flate"
	"io"
	"runtime/debug"
	"time"
)

// Two calibration loops measure the host's speed with code that shares
// nothing with the simulator. On the shared virtual machines this benchmark
// was built on, code slows by up to 2x, in spells of seconds to minutes, as
// other tenants load the machine, and different code slows by different
// amounts. Over twenty 20-second runs of every workload (see README.md), the
// time of the simulator's cells rose with the memory loop below — hash-map
// updates and random reads and writes over an 8 MB array, timed right after
// the cell — with an exponent of 0.7 to 1.1 (compute loops: 1.8 to 3.2), and
// set-up time, which is mostly assembling programs, rose with the
// compression loop (compress/flate of a fixed 32 KB text) with an exponent
// of 0.8 to 1.2, where the memory loop gave 0.5 to 0.8. A run therefore times
// the memory loop after every sweep cell and every campaign block, and the
// compression loop after every set-up, and scales the time measured just
// before by the reference time over the loop's time: the timings a run
// reports are those of a host on which the memory loop takes refCalibNs per
// iteration and the compression loop refCompressNs per byte. Neither loop
// allocates after start-up, so no change to the simulator can move them. The
// first memory sample after any work reads about 20% slower than a repeat
// (17–24% after the cells of the five workloads, whose memory footprints
// differ several-fold, 13–17% after a set-up of a few ms), so how much of
// the cache a cell takes moves the scale by a few percent at most.
const (
	calibIters    = 1 << 19 // one host-label sample, about 35 ms
	scaleIters    = 1 << 16 // one cell-scaling sample, about 5 ms
	compressRuns  = 8       // one set-up-scaling sample, about 2 ms
	refCalibNs    = 60
	refCompressNs = 6
)

var (
	calibMap = make(map[uint64]uint64, 1<<16)
	calibArr = make([]uint64, 1<<20)
)

// calibLoop runs the memory loop for iters iterations and returns its ns
// per iteration.
func calibLoop(iters int) float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibMap[x%(1<<16)] += x
		j := x % uint64(len(calibArr))
		calibArr[j] += x
		benchSink += calibArr[j*7%uint64(len(calibArr))]
	}
	return float64(time.Since(t)) / float64(iters)
}

// calibrate runs n host-label samples of the memory loop and returns each
// one's ns per iteration.
func calibrate(n int) []float64 {
	var out []float64
	for r := 0; r < n; r++ {
		out = append(out, calibLoop(calibIters))
	}
	return out
}

// compressText is the compression loop's input: words drawn from a fixed
// xorshift sequence, so it compresses like text.
var compressText = func() []byte {
	words := []string{"policy ", "commit ", "verify ", "cache ", "line ", "0x1f ", "secret ", "\n"}
	b := make([]byte, 0, 32<<10+8)
	x := uint64(12345)
	for len(b) < 32<<10 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b = append(b, words[x%uint64(len(words))]...)
	}
	return b[:32<<10]
}()

var compressor, _ = flate.NewWriter(io.Discard, flate.BestSpeed)

// compressLoop compresses compressText runs times and returns the ns per
// input byte. Writes to io.Discard cannot fail.
func compressLoop(runs int) float64 {
	t := time.Now()
	for i := 0; i < runs; i++ {
		compressor.Reset(io.Discard)
		_, _ = compressor.Write(compressText)
		_ = compressor.Close()
	}
	return float64(time.Since(t)) / float64(runs*len(compressText))
}

// hostScale runs one memory-loop sample and returns the factor that scales
// a cell time measured just before it to the reference host. Collection is
// held off for the sample — SetGCPercent(-1) first lets a running cycle
// finish — so the benchmark's own garbage does not slow the loop, and a
// change to how much the simulator allocates cannot move the scale.
func hostScale() float64 {
	gc := debug.SetGCPercent(-1)
	ns := calibLoop(scaleIters)
	debug.SetGCPercent(gc)
	return refCalibNs / ns
}

// setupScale is hostScale for a set-up time, with a compression-loop
// sample.
func setupScale() float64 {
	gc := debug.SetGCPercent(-1)
	ns := compressLoop(compressRuns)
	debug.SetGCPercent(gc)
	return refCompressNs / ns
}
