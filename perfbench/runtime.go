package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// memSnap is a point reading of the Go runtime's allocation and GC
// counters, the process CPU time, and the machine's CPU time stolen by
// the hypervisor.
type memSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	pauseNs             uint64
	cpu                 time.Duration
	// steal and ticks are /proc/stat's steal and total CPU ticks over
	// all CPUs; both read 0 where the file cannot be read.
	steal, ticks uint64
}

func snap() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	steal, ticks := cpuTicks()
	return memSnap{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, numGC: m.NumGC,
		pauseNs: m.PauseTotalNs, cpu: cpu, steal: steal, ticks: ticks}
}

// cpuTicks reads the steal and total ticks of /proc/stat's aggregate
// "cpu" line (user nice system idle iowait irq softirq steal ...).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// mallocs is the heap allocation count so far; the traced run reads it
// around each layer call.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// quiesce collects garbage and returns freed memory to the OS, then resets
// the process's peak-RSS mark, so a workload's peak_rss_mb covers its
// timed window and not the set-up before it.
func quiesce() error {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux ≥ 4.0).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's VmHWM in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// cpuModel names the processor from /proc/cpuinfo, for the steadiness
// report.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
