package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB returns the process's peak resident set size in MiB
// (VmHWM), or the runtime's total reserved memory where /proc is not
// available.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS restarts the peak RSS count from the current resident
// set (Linux clear_refs), so peakRSSMB covers only what follows: the
// measured phase, not the transient garbage of repeated set-ups. Where
// that is not available the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see above
}

// releaseMemory collects garbage and returns it to the OS, so that a
// repeated set-up does not raise the peak RSS of the next one.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// ms and ns convert a duration to float milliseconds and nanoseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
