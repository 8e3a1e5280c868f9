package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of the process to the first CPU it may run
// on and sets GOMAXPROCS to 1, and returns that CPU. The host's CPUs do not
// run at the same speed, and the speed of each changes with what runs next
// to it, so the timed work and the gauge runs around it must share one CPU
// (gauge.go). Threads started later inherit the binding from the thread that
// starts them; a second pass catches any started during the first.
func pinToOneCPU() (int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < 64*len(mask) && cpu < 0; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	runtime.GOMAXPROCS(1)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 && errno != syscall.ESRCH {
				return 0, fmt.Errorf("sched_setaffinity on thread %d: %w", tid, errno)
			}
		}
	}
	return cpu, nil
}
