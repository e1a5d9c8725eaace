package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pause sleeps in short, precise steps without holding a CPU. The runtime's
// own timers round sub-millisecond sleeps up to about a millisecond once
// every thread is idle, and a spinning or nanosleeping waiter keeps a CPU
// the pipeline it waits for needs. A one-shot Linux timerfd read through the
// runtime's network poller does neither.
type pause struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newPause() (*pause, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// NewFile registers the non-blocking descriptor with the poller. Its Fd
	// method would make it blocking again, so the raw descriptor is kept.
	return &pause{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d.
func (p *pause) sleep(d time.Duration) error {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // struct itimerspec: interval, then value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pause) close() error { return p.f.Close() }
