package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ivmeps"
	"ivmeps/internal/client"
)

const daemonQuery = "Q(A, C) = R(A, B), S(B, C)"

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// daemonBinary builds the ivmd binary once per test run.
func daemonBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "ivmd-bin-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "ivmd")
		out, err := exec.Command("go", "build", "-o", buildBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// daemon is one running ivmd under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error // cmd.Wait result
}

// startDaemon launches ivmd on an ephemeral port with extra flags and waits
// for its listen banner.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-query", daemonQuery, "-listen", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(daemonBinary(t), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})

	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ivmd: listening on "); ok {
				select {
				case banner <- rest:
				default:
				}
			}
		}
	}()
	go func() { d.done <- cmd.Wait() }()

	select {
	case d.addr = <-banner:
	case err := <-d.done:
		d.done <- err
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not print its listen banner")
	}
	return d
}

// exitCode waits for the daemon to exit and returns its code.
func (d *daemon) exitCode(t *testing.T, within time.Duration) int {
	t.Helper()
	select {
	case err := <-d.done:
		d.done <- err
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("daemon exit: %v", err)
		return -1
	case <-time.After(within):
		t.Fatalf("daemon did not exit within %v", within)
		return -1
	}
}

func TestDaemonGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-dir", dir, "-sync", "off")
	ctx := context.Background()

	c, err := client.New("http://"+d.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := c.NewBatch()
	for i := int64(0); i < 5; i++ {
		b.Insert("R", []int64{i, i}).Insert("S", []int64{i, i})
	}
	epoch, err := c.Commit(ctx, b)
	if err != nil {
		t.Fatal(err)
	}

	// A live watch stream must end with the terminal drain frame, not a
	// dropped connection.
	w, err := c.Watch(ctx, client.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for _, err := range w.Events() {
		if err != nil {
			t.Fatalf("watch stream errored during daemon shutdown: %v", err)
		}
	}
	if !w.Drained() {
		t.Fatal("watch stream was dropped instead of drained")
	}
	if code := d.exitCode(t, 15*time.Second); code != 0 {
		t.Fatalf("daemon exit code = %d, want 0", code)
	}

	// The WAL was flushed on the way out: reopening the directory recovers
	// the final committed epoch and state.
	q := ivmeps.MustParseQuery(daemonQuery)
	eng, err := ivmeps.Open(q, ivmeps.Options{Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncOff}})
	if err != nil {
		t.Fatalf("reopening the daemon's log: %v", err)
	}
	defer eng.Close()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Epoch() != epoch {
		t.Fatalf("recovered epoch = %d, want %d", snap.Epoch(), epoch)
	}
	if snap.Count() != 5 {
		t.Fatalf("recovered result count = %d, want 5", snap.Count())
	}
}

func TestDaemonForcedExit(t *testing.T) {
	d := startDaemon(t, "-drain-timeout", "60s")

	// Wedge shutdown: a commit whose body never finishes keeps one request
	// in flight, so graceful Shutdown blocks on it (up to -drain-timeout).
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/commit HTTP/1.1\r\nHost: %s\r\nContent-Length: 1000000\r\n\r\n", d.addr)
	fmt.Fprint(conn, `{"rel":"R","row":`) // partial body, never completed
	time.Sleep(100 * time.Millisecond)

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the drain start and block
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.exitCode(t, 15*time.Second); code != 3 {
		t.Fatalf("daemon exit code after second SIGTERM = %d, want 3", code)
	}
}

// TestHTTPServerTimeouts pins the daemon's connection timeouts: header and
// idle limits are set, and the read and write limits stay unset so watch
// streams and large commits are not cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v, want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
}
