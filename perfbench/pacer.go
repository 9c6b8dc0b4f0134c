package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer ticks through a Linux timerfd. The Go runtime rounds a timer wait
// below a millisecond up to a whole millisecond when the process is idle
// (its netpoller waits in milliseconds), which would put up to 1 ms of the
// generator's own lateness into every open-loop latency. A timerfd is a
// file the netpoller watches, so a tick wakes the reader at once.
type pacer struct {
	f *os.File
}

// newPacer starts a timer that fires every period.
func newPacer(period time.Duration) (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// struct itimerspec { it_interval, it_value } of timespecs.
	spec := [4]int64{
		int64(period / time.Second), int64(period % time.Second),
		int64(period / time.Second), int64(period % time.Second),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the next tick.
func (p *pacer) wait() error {
	var buf [8]byte // the number of expirations since the last read
	_, err := p.f.Read(buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
