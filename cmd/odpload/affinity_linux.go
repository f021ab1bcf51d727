//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel cpu_set_t large enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }
func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }

// pinToCPUs restricts every thread of this process to the n highest
// CPUs it may run on and returns their ids. Threads the runtime starts
// later, and child processes, inherit the mask from the thread that
// creates them, so pinning every existing thread pins them all. The
// syscall is issued raw so the benchmark needs no module beyond the
// standard library.
func pinToCPUs(n int) ([]int, error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var want cpuMask
	var ids []int
	for cpu := len(allowed)*64 - 1; cpu >= 0 && len(ids) < n; cpu-- {
		if allowed.has(cpu) {
			want.set(cpu)
			ids = append(ids, cpu)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("sched_getaffinity: empty mask")
	}
	// Two passes: a thread created while the first pass walks the task
	// list was created by a thread that may not have been pinned yet.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return nil, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
				unsafe.Sizeof(want), uintptr(unsafe.Pointer(&want)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return nil, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return ids, nil
}
