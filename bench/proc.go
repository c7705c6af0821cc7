package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// maxAttempts bounds how often a hung iteration is retried: the first try
// plus two more.
const maxAttempts = 3

// childMain is the -child entry point: run one iteration in this (fresh)
// process — its own heap, its own VmHWM — and leave the result in a file.
func childMain(configJSON, resultPath string) error {
	var cfg iterConfig
	if err := json.Unmarshal([]byte(configJSON), &cfg); err != nil {
		return fmt.Errorf("bad -child config: %w", err)
	}
	res, err := runIteration(cfg)
	if err != nil {
		return err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath, data, 0o644)
}

// spawnIteration runs one iteration in a child process of this binary under
// the workload's hang deadline. hung reports that the deadline expired: the
// child was then sent SIGQUIT, which makes the Go runtime print every
// goroutine's stack, and that dump is saved to dumpPath.
func spawnIteration(cfg iterConfig, deadline time.Duration, outDir, dumpPath string) (res *iterResult, hung bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	configJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, false, err
	}
	resultPath := filepath.Join(outDir, fmt.Sprintf(".iter-%d-%d.json", os.Getpid(), time.Now().UnixNano()))
	defer os.Remove(resultPath)

	cmd := exec.Command(self, "-child", string(configJSON), "-result", resultPath)
	var stderr bytes.Buffer
	cmd.Stdout = os.Stderr // nothing a child prints belongs in the result stream
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, false, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(deadline):
		hung = true
		_ = cmd.Process.Signal(syscall.SIGQUIT)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			// Not even the runtime's signal handler answered.
			_ = cmd.Process.Kill()
			<-done
		}
	}
	if hung {
		if werr := os.WriteFile(dumpPath, stderr.Bytes(), 0o644); werr != nil {
			return nil, true, werr
		}
		return nil, true, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("%s iteration: %w\n%s", cfg.Workload, err, stderr.Bytes())
	}
	data, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, false, err
	}
	res = new(iterResult)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, false, fmt.Errorf("%s iteration result: %w", cfg.Workload, err)
	}
	return res, false, nil
}

// errHung is returned when every attempt at an iteration hung.
var errHung = errors.New("iteration hung on every attempt")

// iterate runs one iteration with hang containment: a hung attempt is
// dumped, counted and retried, at most maxAttempts times in all. It
// returns the iteration's result and how many attempts hung.
func iterate(wl workload, cfg iterConfig, outDir string) (*iterResult, int, error) {
	hangs := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		dump := filepath.Join(outDir, fmt.Sprintf("%s-hang-%s.txt", wl.name, time.Now().Format("20060102T150405.000")))
		res, hung, err := spawnIteration(cfg, wl.deadline(cfg), outDir, dump)
		if err != nil {
			return nil, hangs, err
		}
		if !hung {
			return res, hangs, nil
		}
		hangs++
		fmt.Fprintf(os.Stderr, "bench: %s iteration hung past %v; goroutine dump in %s\n", wl.name, wl.deadline(cfg), dump)
	}
	return nil, hangs, errHung
}
