package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// procRun is one finished child process: its wall time from start to
// exit, CPU (user + sys) and peak RSS from rusage, and its stdout.
type procRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssKiB int64
	stdout []byte
}

// childEnv is the environment of every program under test: the
// parent's, with GOMAXPROCS pinned to the CPUs this process may use.
func (e *benchEnv) childEnv() []string {
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.procs))
}

// command prepares a child process: a program under test (e.bin) or
// this binary in another mode.
func (e *benchEnv) command(ctx context.Context, path string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, path, args...)
	cmd.Env = e.childEnv()
	cmd.Dir = e.root
	// A child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runProg runs a program under test to completion. A non-zero exit is
// an error carrying its stderr.
func (e *benchEnv) runProg(prog string, args ...string) (procRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := e.command(ctx, e.bin(prog), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("%s %v: %w: %s", prog, args, err, stderr.Bytes())
	}
	return finished(cmd.ProcessState, wall, stdout.Bytes()), nil
}

// finished reads a child's rusage.
func finished(ps *os.ProcessState, wall time.Duration, stdout []byte) procRun {
	r := procRun{wall: wall, cpu: ps.UserTime() + ps.SystemTime(), stdout: stdout}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		r.rssKiB = ru.Maxrss // kilobytes on Linux
	}
	return r
}
