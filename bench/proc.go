package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// statusField reads one "Key:  value" line of a /proc status-style file.
func statusField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is the process's resident-set high-water mark so far:
// VmHWM where /proc has it, the rusage maximum elsewhere.
func peakRSSMB() float64 {
	if kb, err := strconv.ParseFloat(strings.TrimSuffix(statusField("/proc/self/status", "VmHWM"), " kB"), 64); err == nil {
		return kb / 1024
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS starts a fresh high-water mark, so a workload is not
// charged for what ran before it in the same invocation. Best effort:
// where /proc/self/clear_refs is missing the mark simply carries over.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func cpuModel() string {
	if m := statusField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// processAlive reports whether a process with this pid exists.
func processAlive(pid int) bool {
	err := syscall.Kill(pid, 0)
	return err == nil || err == syscall.EPERM
}
