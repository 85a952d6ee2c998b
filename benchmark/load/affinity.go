package load

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The gate host gives the benchmark two processors of a shared machine. A
// server left to itself runs its Stage-2 workers and its collector on both
// while the client's reader and writer want one as well, so every document
// waits for whichever thread the scheduler served last and the run measures
// the scheduler. Pinning gives the server one processor and the client the
// other: no more runnable threads than processors. The server is still
// started with no flag and an unchanged environment; it sees a one-processor
// machine and sizes itself for it.

type cpuSet [128]byte // 1024 processors, the kernel's default mask size

func (s *cpuSet) add(cpu int)      { s[cpu/8] |= 1 << (cpu % 8) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/8]&(1<<(cpu%8)) != 0 }

func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), uintptr(len(s)), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

// allowedCPUs lists the processors the calling thread may run on.
func allowedCPUs() []int {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, uintptr(len(s)), uintptr(unsafe.Pointer(&s))); e != 0 {
		return nil
	}
	var cpus []int
	for c := 0; c < len(s)*8; c++ {
		if s.has(c) {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

// cpuSplit is a split of the processors between the servers the benchmark
// starts and the benchmark itself.
type cpuSplit struct{ server, client, all cpuSet }

// split is the split in force; nil when servers start unpinned.
var split *cpuSplit

// Pin moves every thread of this process to the last allowed processor and
// reserves the first for the servers started with StartServer afterwards and
// for the host reference. With fewer than two processors nothing is pinned.
// release gives this process, and later servers, every processor back.
func Pin() (release func(), err error) {
	cpus := allowedCPUs()
	if len(cpus) < 2 {
		return func() {}, nil
	}
	s := &cpuSplit{}
	for _, c := range cpus {
		s.all.add(c)
	}
	s.server.add(cpus[0])
	s.client.add(cpus[len(cpus)-1])
	if err := setAllThreads(&s.client); err != nil {
		return nil, fmt.Errorf("pin the client: %w", err)
	}
	split = s
	return func() {
		setAllThreads(&s.all)
		split = nil
	}, nil
}

// setAllThreads sets the affinity of every thread of this process; threads
// created later inherit their creator's. It goes over the threads twice, for
// one that an unpinned thread created while the first pass was under way.
func setAllThreads(s *cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, s); err != nil && err != syscall.ESRCH {
				return err
			}
		}
	}
	return nil
}

// start starts cmd, on the server's processor when a split is in force. A
// child inherits the affinity of the thread that forks it, and the Go runtime
// reads its processor count before main runs, so the mask has to be in place
// at the fork: this thread takes the server's mask for the moment of the fork.
func start(cmd *exec.Cmd) error {
	p := split
	if p == nil {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.server); err != nil {
		return fmt.Errorf("pin the server: %w", err)
	}
	defer setAffinity(0, &p.client)
	return cmd.Start()
}
