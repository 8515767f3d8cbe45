package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed normalization. The machines this benchmark runs on are
// shared: another tenant's load slows the simulator by 15-50% for seconds
// to minutes, and a slowed run reads the same in wall-clock and in CPU
// time. Measured time is therefore cut into slices of sliceLen; between
// slices, with the load drained, every CPU runs a fixed calibration
// kernel, and each slice's times are rescaled by calibRef over the mean
// kernel cost on its two sides. The kernel is independent of the code
// under test, so a change to the repository moves the normalized numbers
// exactly as it moves the raw ones on a steady host. Raw numbers are kept
// in each run record beside the normalized ones.
//
// The kernel mixes independent integer chains, unpredictable branches and
// a 512 KB table, to resemble the simulator's hot loops; simpler
// dependency-chain or pointer-chasing kernels were measured not to slow
// down with it. Its cost is read from each calibrating thread's CPU
// clock, so a garbage collection overlapping the calibration does not
// register as a slow host.
const (
	sliceLen    = 250 * time.Millisecond
	calibRounds = 250_000
	// calibRef is the kernel cost the normalized numbers assume, a
	// constant just under the cost measured on the host of the baseline
	// (3.7-4.7 ms), so normalized numbers read close to a quiet run's raw
	// ones.
	calibRef = 3500 * time.Microsecond
)

// calibrator runs the kernel on width locked threads at once.
type calibrator struct {
	tables [][]uint64
	sink   []uint64
}

func newCalibrator(width int) *calibrator {
	c := &calibrator{tables: make([][]uint64, width), sink: make([]uint64, width)}
	for i := range c.tables {
		c.tables[i] = make([]uint64, 64<<10)
	}
	return c
}

// cost runs one calibration round and returns the mean per-thread CPU
// time of the kernel.
func (c *calibrator) cost() time.Duration {
	var wg sync.WaitGroup
	costs := make([]time.Duration, len(c.tables))
	for k := range c.tables {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			c.sink[k] = calibKernel(c.tables[k], uint64(k)+1)
			costs[k] = threadCPU() - t0
		}(k)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range costs {
		sum += d
	}
	return sum / time.Duration(len(costs))
}

// calibKernel is the fixed calibration work.
func calibKernel(tab []uint64, seed uint64) uint64 {
	mask := uint64(len(tab) - 1)
	a, b, c, d := seed, seed+1, seed+2, seed+3
	var acc uint64
	for i := 0; i < calibRounds; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 5
		b ^= b >> 11
		b ^= b << 23
		c += a * 0x9E3779B97F4A7C15
		d ^= c >> 29
		switch {
		case a&1 == 0:
			acc += tab[a&mask]
		case b&2 == 0:
			tab[b&mask] = c
		default:
			acc ^= d
		}
		switch (c >> 61) & 3 {
		case 0:
			acc += a
		case 1:
			acc -= b
		case 2:
			acc ^= c
		default:
			acc += d >> 3
		}
	}
	return acc
}

// speed is how many reference seconds one host second is worth, given
// kernel costs measured on both sides of a slice.
func speed(before, after time.Duration) float64 {
	return float64(calibRef) / (float64(before+after) / 2)
}
