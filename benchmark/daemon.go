package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/pargeo-serve into dir and returns the binary's
// path. The package resolves from the checkout's root (module pargeo) and
// from this directory (module pargeo/benchmark, which requires pargeo)
// alike. With a warm build cache this is a link step; the wrapper script
// points GOCACHE inside the checkout so nothing is written outside it.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "pargeo-serve")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "pargeo/cmd/pargeo-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build pargeo-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running pargeo-serve child.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
	log  *tailBuffer
}

var listenLine = regexp.MustCompile(`listening on (\S+) \(`)

// startDaemon launches the daemon on a free loopback port with its own
// GOMAXPROCS and waits for its listen line. The caller registers stop with
// run.atExit, so every exit path (return, error, SIGINT/SIGTERM) ends it.
func startDaemon(bin, dir string, procs int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dim", "2", "-shards", strconv.Itoa(shards),
		"-dir", dir, "-sync-every", "64")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1), log: &tailBuffer{}}
	ready := make(chan []string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.log.add(sc.Text())
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case ready <- m:
				default:
				}
			}
		}
		// Wait only after the pipe is drained (exec.Cmd's contract).
		d.done <- cmd.Wait()
	}()
	select {
	case m := <-ready:
		d.addr = m[1]
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("pargeo-serve exited before listening: %v\n%s", err, d.log)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing
		<-d.done
		return nil, fmt.Errorf("pargeo-serve did not listen within 60s\n%s", d.log)
	}
}

// stop sends SIGTERM, waits for the drain and exit, and reports a non-zero
// exit status. Safe on a nil or already stopped daemon.
func (d *daemon) stop() error {
	if d == nil || d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already; Wait tells
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("pargeo-serve: %v\n%s", err, d.log)
		}
		return nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // last resort
		<-d.done
		return fmt.Errorf("pargeo-serve ignored SIGTERM for 60s\n%s", d.log)
	}
}

// tailBuffer keeps the daemon's last log lines for error reports.
type tailBuffer struct{ lines []string }

func (t *tailBuffer) add(s string) {
	t.lines = append(t.lines, s)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string { return strings.Join(t.lines, "\n") }
