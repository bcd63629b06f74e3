package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask (room for 1024 CPUs).
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// startOnCPU runs start (which forks a child process) on an OS thread
// bound to the given CPU, so the child and every thread it creates
// inherit that affinity; the thread's own mask is restored afterwards.
// Where affinity cannot be set, start runs unpinned and pinned is false.
func startOnCPU(cpu int, start func() error) (pinned bool, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old cpuMask
	if schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &old) != nil {
		return false, start()
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &one) != nil {
		return false, start()
	}
	err = start()
	_ = schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &old) // the mask was just read from this thread
	return true, err
}
