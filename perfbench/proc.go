package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the process counters a phase is charged
// against; phase figures are differences of two samples.
type procSample struct {
	at         time.Time
	user, sys  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64 // seconds, runtime/metrics
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(m)
	gc := 0.0
	if m[0].Value.Kind() == metrics.KindFloat64 {
		gc = m[0].Value.Float64()
	}
	return procSample{
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      gc,
	}
}

// procDelta is what a phase cost the whole process.
type procDelta struct {
	wall       time.Duration
	user, sys  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      time.Duration
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:       b.at.Sub(a.at),
		user:       b.user - a.user,
		sys:        b.sys - a.sys,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCPU:      time.Duration((b.gcCPU - a.gcCPU) * float64(time.Second)),
	}
}

// resetPeakRSS restarts the resident-set high-water mark, so a phase's
// peak excludes the repeated set-ups before it. Where the kernel refuses,
// the peak stays the process lifetime's.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB is the resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	return float64(procField("/proc/self/status", "VmHWM:")) / 1024 // kB
}

// procField reads the first number after key in a /proc file, 0 when the
// file or the key is missing.
func procField(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(v)
			if len(fields) > 0 {
				n, err := strconv.ParseInt(fields[0], 10, 64)
				if err == nil {
					return n
				}
			}
		}
	}
	return 0
}
