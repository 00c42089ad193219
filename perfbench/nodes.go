package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server child process: an eeserve node in the untraced
// run, or the benchmark's own in-process stack (`perfbench serve`) in
// the traced run.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // exit status, valid once done is closed
}

func startProc(logPath, bin string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A server must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to exit (SIGTERM: eeserve seals its WAL, the
// traced stack writes its spans), kills it after a grace period, and
// waits until it has ended.
func (p *proc) stop(grace time.Duration) {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (p *proc) peakRSSMiB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// node is one HTTP serving endpoint of a proc.
type node struct {
	name string
	base string // http://127.0.0.1:port
	proc *proc
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until ok returns true for the node's
// health, the process dies, or the deadline passes.
func waitHealthy(c *conn, n *node, deadline time.Time, ok func(health) bool) error {
	for {
		if n.proc.exited() {
			return fmt.Errorf("%s exited during boot: %v (see its log)", n.name, n.proc.err)
		}
		if h, err := c.health(n.base); err == nil && h.Status == "ok" && ok(h) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within the boot deadline", n.name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
