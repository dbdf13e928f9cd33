package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a CPU affinity mask as the kernel takes it, good for 1024 CPUs.
type cpuMask [16]uint64

func affinity(call uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// pinToOneCPU binds the calling goroutine's thread to the first CPU it may
// run on, so that the processes it starts until unpin is called, and all
// their threads, inherit that one CPU and share it. Without the right to
// set an affinity nothing is pinned.
func pinToOneCPU() (unpin func()) {
	runtime.LockOSThread()
	var allowed, one cpuMask
	if affinity(syscall.SYS_SCHED_GETAFFINITY, &allowed) == nil {
		for i, word := range allowed {
			if word != 0 {
				one[i] = word & -word // the lowest set bit
				break
			}
		}
		if affinity(syscall.SYS_SCHED_SETAFFINITY, &one) == nil {
			return func() {
				affinity(syscall.SYS_SCHED_SETAFFINITY, &allowed)
				runtime.UnlockOSThread()
			}
		}
	}
	return runtime.UnlockOSThread
}
