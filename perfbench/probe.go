package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Host-noise diagnostics. They are recorded with every run and never
// gated: when a verdict turns noisy they tell a slower host (stolen
// cycles, contended memory bandwidth) apart from a slower program.

// monoNow reads CLOCK_MONOTONIC, which — unlike the monotonic reading in
// a time.Time — is comparable across processes, so a child can time its
// own start-up against the instant its parent launched it.
func monoNow() int64 {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 1, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// stealTicks returns the host's cumulative steal time from /proc/stat, in
// clock ticks (-1 when unavailable).
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// probeSink keeps the register loop's result alive.
var probeSink uint64

// registerLoopMS times a fixed register-only loop (an xorshift chain that
// never touches memory): the CPU-speed reference.
func registerLoopMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return float64(time.Since(start)) / 1e6
}

// memcpyMS times a fixed 8 MiB copy, repeated 32 times, and returns the
// median single copy in milliseconds: the memory-bandwidth reference.
func memcpyMS() float64 {
	src := make([]byte, 8<<20)
	dst := make([]byte, 8<<20)
	for i := range src {
		src[i] = byte(i)
	}
	times := make([]float64, 32)
	for i := range times {
		start := time.Now()
		copy(dst, src)
		times[i] = float64(time.Since(start)) / 1e6
	}
	sort.Float64s(times)
	return times[len(times)/2]
}
