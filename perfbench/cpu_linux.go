package main

import (
	"syscall"
	"time"
)

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does not
// name: the CPU time of the calling OS thread only.
const rusageThread = 1

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// getrusage fails only for an invalid who; both callers pass a valid one.
	_ = syscall.Getrusage(who, &ru)
	return ru
}

func cpuOf(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU is the user+system CPU the whole process has used.
func processCPU() time.Duration { return cpuOf(rusage(syscall.RUSAGE_SELF)) }

// threadCPU is the user+system CPU the calling OS thread has used. Callers
// hold runtime.LockOSThread across the two readings they difference.
func threadCPU() time.Duration { return cpuOf(rusage(rusageThread)) }

// maxRSSMB is the process's peak resident set size in MiB (ru_maxrss is KiB
// on Linux).
func maxRSSMB() float64 { return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024 }
