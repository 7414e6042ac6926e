package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// A timed phase always runs in a fresh process, started after set-up
// finished in a process of its own. A second capture Session in one
// process inherits the first one's heap: ClientDirect's 4 MiB pages come
// back from the Go heap needing to be zeroed, and a second Session was
// measured at ~40 µs/frame and 5 GB RSS against ~4.5 µs/frame and
// 0.2 GB in a fresh process. Peak RSS of a child is also exactly its
// timed phase's.

// childEnv marks a process as a child running one role.
const childEnv = "PERFBENCH_CHILD"

// children maps a role name to its handler: it decodes the job from in
// and returns the value written back to the parent.
var children = map[string]func(in []byte) (any, error){}

// runChildRole is main for a child process: one role, job on stdin,
// JSON result on stdout.
func runChildRole(role string) error {
	fn, ok := children[role]
	if !ok {
		return fmt.Errorf("unknown child role %q", role)
	}
	var in bytes.Buffer
	if _, err := in.ReadFrom(os.Stdin); err != nil {
		return fmt.Errorf("reading job: %w", err)
	}
	out, err := fn(in.Bytes())
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// childRun is what the parent learns about one finished child.
type childRun struct {
	Wall     time.Duration
	MaxRSSMB float64 // peak resident set of the child over its life
}

// runChild runs role in a fresh copy of this binary, feeding it job and
// decoding its result into out. The child's stderr passes through.
func runChild(ctx context.Context, role string, job, out any) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return childRun{}, err
	}
	// Flush what earlier phases wrote, so a child's timing does not
	// share the disk with the kernel's delayed writeback of, say, the
	// dataset it is about to read back.
	syscall.Sync()
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err = cmd.Run()
	run := childRun{Wall: time.Since(start), MaxRSSMB: maxRSSMB(cmd.ProcessState)}
	if err != nil {
		return run, fmt.Errorf("child %s: %w", role, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return run, fmt.Errorf("child %s: decoding result: %w", role, err)
	}
	return run, nil
}

// maxRSSMB is a finished process's peak resident set in MB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
