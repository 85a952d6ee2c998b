// Package load drives a child mmqjp-server over its wire protocol and turns
// what it observes into the benchmark's metrics. It imports nothing from the
// repository: the server is a program on disk and a TCP address.
package load

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one child mmqjp-server process.
type Server struct {
	Addr string
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result once
}

// StartServer spawns bin with only -addr set, on a free loopback port, and
// returns once the port accepts connections. The environment is inherited
// unchanged and no tuning flag is passed: the benchmark measures what a user
// gets by default. The server's log goes to logw.
func StartServer(bin string, logw io.Writer) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logw, logw
	// If the benchmark is killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := start(cmd); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &Server{Addr: addr, cmd: cmd, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return s, nil
		}
		select {
		case werr := <-s.done:
			return nil, fmt.Errorf("server exited before listening on %s: %v", addr, werr)
		default:
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("server not listening on %s after 10s", addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop sends SIGTERM and waits for the process to end; a server that ignores
// it for 5 s is killed.
func (s *Server) Stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// CPU returns the processor time the server has used so far, user plus
// system over all its threads. It reads the scheduler's nanosecond counters
// where the kernel exposes them and falls back to the 10 ms ticks of
// /proc/<pid>/stat.
func (s *Server) CPU() time.Duration {
	pid := s.cmd.Process.Pid
	if tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)); len(tasks) > 0 {
		var ns int64
		for _, t := range tasks {
			b, err := os.ReadFile(t)
			if err != nil {
				continue // the thread exited between the glob and the read
			}
			if i := bytes.IndexByte(b, ' '); i > 0 {
				v, _ := strconv.ParseInt(string(b[:i]), 10, 64)
				ns += v
			}
		}
		if ns > 0 {
			return time.Duration(ns)
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// PeakRSSMB returns the server's resident-set high-water mark (VmHWM).
func (s *Server) PeakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
