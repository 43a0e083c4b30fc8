package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one prsimserve child process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *tailBuffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited is closed
	ready  time.Duration // exec to first healthy answer
}

// servers tracks every child still running so that stopAll can end them on
// any exit path of the benchmark.
var (
	serversMu sync.Mutex
	running   = map[*server]bool{}
)

// startServer execs prsimserve on snapshot with the benchmark's fixed flags
// and waits until /v1/healthz answers.
func startServer(ctx context.Context, bin, snapshot string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, stderr: &tailBuffer{max: 64 << 10}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-loadindex", snapshot, "-shards", "2", "-cache", "1024", "-addr", addr)
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	// The kernel ends the server if the benchmark dies without running its
	// cleanup (a fatal runtime error, SIGKILL).
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	serversMu.Lock()
	running[s] = true
	serversMu.Unlock()
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx, start); err != nil {
		s.stop()
		return nil, fmt.Errorf("%w\nserver output:\n%s", err, s.stderr.String())
	}
	s.ready = time.Since(start)
	return s, nil
}

// waitHealthy polls /v1/healthz until it answers 200, the process exits, or
// 60 seconds pass.
func (s *server) waitHealthy(ctx context.Context, start time.Time) error {
	client := &http.Client{Timeout: time.Second}
	for time.Since(start) < 60*time.Second {
		select {
		case <-s.exited:
			return fmt.Errorf("prsimserve exited before becoming healthy: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(s.base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("prsimserve not healthy after 60s")
}

// stop sends SIGTERM, waits up to 20 seconds for the drain and exit, then
// kills the process and waits for it. It returns the exit error of a
// server that did not end cleanly.
func (s *server) stop() error {
	defer func() {
		serversMu.Lock()
		delete(running, s)
		serversMu.Unlock()
	}()
	select {
	case <-s.exited:
		return s.exitErr()
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.exitErr()
	case <-time.After(20 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
	return fmt.Errorf("prsimserve did not exit within 20s of SIGTERM and was killed")
}

func (s *server) exitErr() error {
	if s.err != nil {
		return fmt.Errorf("prsimserve exited: %v", s.err)
	}
	return nil
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in server status")
}

// stopAll stops every server still running; the benchmark's exit paths call
// it.
func stopAll() {
	serversMu.Lock()
	list := make([]*server, 0, len(running))
	for s := range running {
		list = append(list, s)
	}
	serversMu.Unlock()
	for _, s := range list {
		_ = s.stop()
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it; the server's output
// goes here so a failure can print it.
type tailBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if over := b.buf.Len() - b.max; over > 0 {
		b.buf.Next(over)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// cpuTimes reads the machine's total and stolen CPU time (USER_HZ ticks)
// from /proc/stat; stolen time is time the hypervisor ran someone else.
func cpuTimes() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
