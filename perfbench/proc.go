package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one hhcd process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // query address
	listen string // -listen address ("" for a bare run)
	done   chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics; guarded by mu
}

const bannerPrefix = "hhcd: serving path queries on "

// startDaemon runs bin with args (GOMAXPROCS=1) and returns once its
// banner — printed only after the query and -listen listeners are bound —
// has appeared on stderr.
func startDaemon(bin string, args []string, listen string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// Should the benchmark die without stopping it, hhcd dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hhcd: %w", err)
	}
	d := &daemon{cmd: cmd, listen: listen, done: make(chan struct{})}
	ready := make(chan string, 1)
	go d.readStderr(stderr, ready)
	select {
	case addr := <-ready:
		d.addr = addr
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("hhcd %s did not start: %s", strings.Join(args, " "), d.stderrTail())
}

// readStderr forwards the banner address to ready and keeps a short tail
// of the log; it closes d.done once the process has exited.
func (d *daemon) readStderr(r io.Reader, ready chan<- string) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, bannerPrefix); ok {
			addr, _, _ := strings.Cut(rest, " ")
			select {
			case ready <- addr:
			default:
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
	_ = d.cmd.Wait()
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGINT (which also flushes a -trace file)
// and waits for it to exit, killing it if the drain hangs.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.done:
		return
	case <-time.After(20 * time.Second):
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}

// freePorts reserves n distinct loopback addresses. The listeners are
// closed before returning, so another process could take a port in the
// gap; hhcd then fails to start and the run reports it.
func freePorts(n int) ([]string, error) {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		out = append(out, ln.Addr().String())
	}
	return out, nil
}
