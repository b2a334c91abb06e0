package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/leakcheck"
)

// TestMain fails the package's run when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// lines is a goroutine-safe stdout for run that tests can wait on.
type lines struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// waitFor blocks until the output holds a line containing sub and
// returns that line.
func (l *lines) waitFor(t *testing.T, sub string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, line := range strings.Split(l.String(), "\n") {
			if strings.Contains(line, sub) {
				return line
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no output line contains %q; output:\n%s", sub, l.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// appendRecords appends n one-per-second records starting at second
// from to the binary log at path.
func appendRecords(t *testing.T, path string, from, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w := firewall.NewWriter(bw)
	base := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	for i := from; i < from+n; i++ {
		if err := w.Write(firewall.Record{
			Time: base.Add(time.Duration(i) * time.Second),
			Src:  netip.MustParseAddr("2001:db8:1::1"),
			Dst:  netip.MustParseAddr(fmt.Sprintf("2001:db8:ffff::%x", i+1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSignals drives the command through its signals: SIGHUP is
// noted and the daemon keeps tailing and serving; SIGTERM drains, cuts
// a final checkpoint with its phase sidecar and stops cleanly. On the
// way it reads a runtime profile beside the API.
func TestRunSignals(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	ckpt := filepath.Join(dir, "ckpt")
	appendRecords(t, log, 0, 10)

	var out lines
	done := make(chan error, 1)
	go func() {
		// The default one-minute tick never fires on these ten-second
		// appends: /api/state counts them from the stream progress.
		done <- run([]string{"-i", log, "-listen", "127.0.0.1:0", "-poll", "2ms",
			"-checkpoint-dir", ckpt}, &out, io.Discard)
	}()
	stopped := false
	t.Cleanup(func() { // a failed test still stops the daemon
		if stopped {
			return
		}
		select {
		case <-done: // run failed on its own; its signal handling is gone
		default:
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
			<-done
		}
	})
	_, url, ok := strings.Cut(out.waitFor(t, "serving "), "serving ")
	if !ok {
		t.Fatal("serving line names no URL")
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	waitRecords := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := client.Get(url + "/api/state")
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				Running bool   `json:"running"`
				Records uint64 `json:"records"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if st.Running && st.Records >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("state %+v, want running with %d records", st, n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitRecords(10)

	// The runtime profiles share the API's listener.
	resp, err := client.Get(url + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine profile:") {
		t.Fatalf("/debug/pprof/goroutine: status %d, err %v, body %.80q", resp.StatusCode, err, body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	out.waitFor(t, "SIGHUP ignored")
	appendRecords(t, log, 10, 5)
	waitRecords(15)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		stopped = true
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}
	if !strings.Contains(out.String(), "v6scand: stopped cleanly") {
		t.Fatalf("output has no clean stop:\n%s", out.String())
	}
	for _, pattern := range []string{"*.ckpt", "*.ckpt.marks"} {
		if m, _ := filepath.Glob(filepath.Join(ckpt, pattern)); len(m) != 1 {
			t.Errorf("checkpoint dir holds %d %s files, want the final cut's one", len(m), pattern)
		}
	}
}
