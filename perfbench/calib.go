package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on changes speed over minutes: the same pass
// took 1.13 to 1.43 CPU-seconds at different times, and a whole set of runs
// could run 1.5× faster than one taken a quarter of an hour earlier. Every
// timed metric moves with it, while the program has not changed. So each run
// also times a fixed loop of its own that has nothing to do with the
// program, interleaved with the passes, and states its times in reference
// seconds: seconds on a host where one calibration sample takes calRef.
// A change to the program cannot move the loop; a change of host speed
// moves both and cancels.

// calRef is one calibration sample's CPU time on the reference host. On the
// 2-core machine the benchmark was tuned on it took 21 to 36 ms, depending
// on the minute.
const calRef = 25 * time.Millisecond

// calBuf is the loop's input: 32 KiB of fixed pseudo-random bytes. It stays
// in the core's own cache, so the loop measures the core's speed and not
// where in memory the buffer happens to lie: with a 4 MiB buffer the
// loop's speed differed by a tenth from one process to the next, more than
// the passes it was meant to correct.
var calBuf = func() []byte {
	b := make([]byte, 32<<10)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}()

var calSink uint64

// calRounds is how many times one sample runs the loop over calBuf.
const calRounds = 128

// calLoop is the calibration work: branchy passes over calBuf, the kind of
// byte-at-a-time classification a parser does.
func calLoop() uint64 {
	var n uint64
	for r := 0; r < calRounds; r++ {
		for _, c := range calBuf {
			switch {
			case c < 64:
				n += uint64(c)
			case c < 128:
				n ^= uint64(c) << 3
			default:
				n = n*31 + uint64(c)
			}
		}
	}
	return n
}

// cal collects the calibration samples of the run: one run is one process,
// and only the goroutine that times the passes takes samples.
var cal calib

type calib struct {
	samples []time.Duration
}

// sample times calLoop once in the CPU time of its own thread. It first
// waits for a collection in progress to finish (switching the collector off
// does that; it is switched on again at once, and the loop allocates
// nothing, so no new cycle starts): mark workers on the other core slowed
// the loop by up to half, and a change to how much garbage the program
// makes must not move the calibration.
func (c *calib) sample() {
	debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.LockOSThread()
	t0 := threadCPU()
	calSink += calLoop()
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	c.samples = append(c.samples, d)
}

// mark is where the next sample will go, for scale.
func (c *calib) mark() int { return len(c.samples) }

// scale converts times measured since sample from to reference seconds: a
// time measured then, times scale, is what it would have taken on the
// reference host. Each part of a run is scaled by the samples taken while
// it ran, since the host's speed can change within a run.
func (c *calib) scale(from int) float64 {
	m := median(c.samples[from:])
	if m <= 0 {
		return 1
	}
	return float64(calRef) / float64(m)
}

// refTime converts a measured time to reference seconds.
func refTime(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// threadCPU is the CPU time of the calling thread
// (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
