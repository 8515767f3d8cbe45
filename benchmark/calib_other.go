//go:build !linux

package main

import "time"

var wallEpoch = time.Now()

// threadCPU falls back to the wall clock where no per-thread CPU clock is
// available; calibration then also counts time the kernel waited for a
// CPU.
func threadCPU() time.Duration { return time.Since(wallEpoch) }
