package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/pipeline"
)

var testBase = time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)

// scanBurst is n records from one source to n distinct destinations,
// one per second starting at testBase+off — a scanner the IDS alerts
// on once the candidate idles past the timeout.
func scanBurst(src string, off time.Duration, n int) []firewall.Record {
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, firewall.Record{
			Time: testBase.Add(off + time.Duration(i)*time.Second),
			Src:  netip.MustParseAddr(src),
			Dst:  netip.MustParseAddr(fmt.Sprintf("2001:db8:ffff::%x", i+1)),
		})
	}
	return recs
}

// fillers is one benign record per minute from minute from to minute
// to (exclusive) — distinct single-destination sources that advance
// stream time (arming and firing ticks) without ever alerting.
func fillers(from, to int) []firewall.Record {
	var recs []firewall.Record
	for m := from; m < to; m++ {
		recs = append(recs, firewall.Record{
			Time: testBase.Add(time.Duration(m) * time.Minute),
			Src:  netip.MustParseAddr(fmt.Sprintf("2001:db8:aaaa::%x", m+1)),
			Dst:  netip.MustParseAddr("2001:db8:ffff::1"),
		})
	}
	return recs
}

// appendLog appends encoded records to path, flushing both buffer
// layers so every record is durable when the call returns.
func appendLog(t *testing.T, path string, recs []firewall.Record) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	w := firewall.NewWriter(bw)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
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

// sidecar is the JSON of a checkpoint's "<ckpt>.marks" cadence-phase
// sidecar, as external readers (the CI smoke job, the benchmark) see it.
type sidecar struct {
	Advance    time.Time `json:"advance"`
	Checkpoint time.Time `json:"checkpoint"`
}

// readMarks loads a checkpoint's sidecar; ok=false when it is missing
// or does not parse.
func readMarks(path string) (sidecar, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return sidecar{}, false
	}
	var m sidecar
	return m, json.Unmarshal(b, &m) == nil
}

// testIDS is a small-threshold config so 20-destination bursts alert.
func testIDS() ids.Config {
	return ids.Config{MinDsts: 5, Timeout: 10 * time.Minute}
}

// daemonRun drives a Daemon in a goroutine, with helpers to wait for
// ingest progress and to stop it cleanly.
type daemonRun struct {
	d      *Daemon
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(t *testing.T, cfg Config) *daemonRun {
	t.Helper()
	if cfg.Poll == 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	dr := &daemonRun{d: d, cancel: cancel, done: make(chan error, 1)}
	go func() { dr.done <- d.Run(ctx) }()
	return dr
}

// waitRecords blocks until the pipeline's source has emitted n records
// (raw tail output, before any filter).
func (dr *daemonRun) waitRecords(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for dr.d.pm.SourceRecords.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d records, have %d",
				n, dr.d.pm.SourceRecords.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitAlerts blocks until n alerts have been published.
func (dr *daemonRun) waitAlerts(t *testing.T, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, total, _ := dr.d.hub.page(0, 0)
		if total >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d alerts, have %d", n, total)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop cancels the run context (the in-process SIGTERM) and waits for
// the clean drain + final checkpoint.
func (dr *daemonRun) stop(t *testing.T) {
	t.Helper()
	dr.cancel()
	select {
	case err := <-dr.done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not stop")
	}
}

// alerts returns every published alert in order.
func (dr *daemonRun) alerts() []SeqAlert {
	out, _, _ := dr.d.hub.page(0, 0)
	return out
}

// alertsJSON renders alerts for content comparison (time and prefix
// representations normalize through the wire shape).
func alertsJSON(t *testing.T, alerts []SeqAlert) string {
	t.Helper()
	var b strings.Builder
	for _, sa := range alerts {
		j, err := json.Marshal(SeqAlert{Alert: sa.Alert}) // drop seq: runs renumber
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestHubBackpressure: a slow subscriber loses alerts (counted), the
// hub and other subscribers are unaffected, and the ring stays
// bounded with pagination reporting the trimmed window.
func TestHubBackpressure(t *testing.T) {
	h := newHub(8, 2)
	slow, _ := h.subscribe(0)
	alerts := make([]ids.Alert, 20)
	for i := range alerts {
		alerts[i] = ids.Alert{Prefix: netip.MustParsePrefix("2001:db8::/48")}
	}
	h.publish(alerts)
	if len(slow.ch) != 2 {
		t.Fatalf("slow client buffered %d, want 2", len(slow.ch))
	}
	if _, dropped := h.stats(); dropped != 18 {
		t.Fatalf("dropped = %d, want 18", dropped)
	}
	page, total, first := h.page(0, 0)
	if total != 20 || first != 12 || len(page) != 8 {
		t.Fatalf("page = (%d alerts, total %d, first %d), want (8, 20, 12)", len(page), total, first)
	}
	if page[0].Seq != 12 || page[7].Seq != 19 {
		t.Fatalf("ring window [%d,%d], want [12,19]", page[0].Seq, page[7].Seq)
	}
	// Late subscriber with from: only the retained suffix arrives.
	_, backlog := h.subscribe(15)
	if len(backlog) != 5 || backlog[0].Seq != 15 {
		t.Fatalf("backlog from 15: %d entries starting %d", len(backlog), backlog[0].Seq)
	}
	h.unsubscribe(slow)
	if n, _ := h.stats(); n != 1 {
		t.Fatalf("subscribers = %d after unsubscribe, want 1", n)
	}
}

// TestBlocklistExport: alerts fold into a deduplicated, sorted,
// atomically rewritten rule file.
func TestBlocklistExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "block.rules")
	b := newBlocklist(path)
	mk := func(p string) ids.Alert { return ids.Alert{Prefix: netip.MustParsePrefix(p)} }
	if !b.add([]ids.Alert{mk("2001:db8:2::/48"), mk("2001:db8:1::/48")}) {
		t.Fatal("add reported no growth")
	}
	if err := b.write(); err != nil {
		t.Fatal(err)
	}
	if b.add([]ids.Alert{mk("2001:db8:1::/48")}) {
		t.Fatal("duplicate grew the set")
	}
	b.add([]ids.Alert{mk("2001:db8:1::/64")})
	if err := b.write(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "2001:db8:1::/48\n2001:db8:1::/64\n2001:db8:2::/48\n"
	if string(got) != want {
		t.Fatalf("blocklist = %q, want %q", got, want)
	}
}

// TestDaemonEndToEnd: the acceptance scenario — records appended to a
// live log are observed through /api/state, an alert reaches both the
// SSE stream and /api/alerts, /metrics exposes the serving families,
// and cancellation cuts a final checkpoint.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	ckpt := filepath.Join(dir, "ckpt")
	block := filepath.Join(dir, "block.rules")

	dr := startDaemon(t, Config{
		LogPath:         log,
		Shards:          4,
		IDS:             testIDS(),
		AdvanceEvery:    time.Minute,
		CheckpointEvery: 5 * time.Minute,
		CheckpointDir:   ckpt,
		BlocklistPath:   block,
	})
	srv := httptest.NewServer(dr.d.Handler())
	defer srv.Close()

	// Subscribe to the SSE stream before any alert exists.
	sse, err := http.Get(srv.URL + "/api/alerts/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	events := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(sse.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				events <- data
			}
		}
	}()

	// A scan burst appears in the live log and is observed via state.
	burst := scanBurst("2001:db8:bad::1", 0, 20)
	appendLog(t, log, burst)
	dr.waitRecords(t, 20)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st State
		resp, err := http.Get(srv.URL + "/api/state")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.Records >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state.Records = %d, want ≥ 20", st.Records)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stream time advances past the timeout: the eviction tick alerts.
	appendLog(t, log, fillers(1, 15))
	dr.waitAlerts(t, 1)

	select {
	case data := <-events:
		if !strings.Contains(data, "2001:db8:bad::") {
			t.Fatalf("SSE alert %q does not name the scanner", data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no SSE alert arrived")
	}

	// The alert pages out of /api/alerts too.
	resp, err := http.Get(srv.URL + "/api/alerts?offset=0&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	var page alertsPage
	json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if page.Total < 1 || len(page.Alerts) < 1 {
		t.Fatalf("alerts page = %+v, want ≥ 1 alert", page)
	}

	// /metrics carries both pipeline and daemon families.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	resp.Body.Close()
	for _, want := range []string{
		"v6scan_pipeline_records_total",
		"v6scan_pipeline_advances_total",
		"v6scand_alerts_total",
		"v6scand_ids_candidates{level=\"/48\"}",
		"v6scand_sse_clients 1",
		"v6scand_shard_queue_depth",
	} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The blocklist export names the scanner.
	rules, err := os.ReadFile(block)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rules), "2001:db8:bad::") {
		t.Fatalf("blocklist %q does not name the scanner", rules)
	}

	// SIGTERM path: clean stop cuts a final checkpoint with sidecar.
	dr.stop(t)
	latest, err := pipeline.LatestCheckpoint(ckpt)
	if err != nil || latest == "" {
		t.Fatalf("no final checkpoint (err %v)", err)
	}
	if _, ok := readMarks(latest + ".marks"); !ok {
		t.Fatalf("final checkpoint %s has no marks sidecar", latest)
	}
	if st := dr.d.State(); st.Running {
		t.Fatal("state still Running after stop")
	}
}

// TestDaemonReload: SIGHUP restarts the generation, carrying engine
// state across in memory — candidates survive and alert after the
// reload, and the generation counter advances.
func TestDaemonReload(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "fw.log")
	dr := startDaemon(t, Config{
		LogPath:      log,
		IDS:          testIDS(),
		AdvanceEvery: time.Minute,
	})
	appendLog(t, log, scanBurst("2001:db8:bad::1", 0, 20))
	dr.waitRecords(t, 20)

	dr.d.Reload()
	deadline := time.Now().Add(10 * time.Second)
	for dr.d.State().Generation < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("generation = %d, want 2", dr.d.State().Generation)
		}
		time.Sleep(time.Millisecond)
	}

	// The reloaded generation still holds the scanner candidate: the
	// time jump must alert without re-reading the burst (which the
	// resume horizon skips).
	appendLog(t, log, fillers(1, 15))
	dr.waitAlerts(t, 1)
	if got := dr.alerts(); !strings.Contains(alertsJSON(t, got), "2001:db8:bad::") {
		t.Fatalf("post-reload alerts %s do not name the scanner", alertsJSON(t, got))
	}
	dr.stop(t)
}

// TestNewDaemonRejectsCheckpointWithoutDir: a checkpoint setting with
// nowhere to write is a configuration error up front, not a cadence
// that silently never fires.
func TestNewDaemonRejectsCheckpointWithoutDir(t *testing.T) {
	for name, cfg := range map[string]Config{
		"Resume":          {LogPath: "fw.log", Resume: true},
		"CheckpointEvery": {LogPath: "fw.log", CheckpointEvery: time.Hour},
	} {
		if _, err := NewDaemon(cfg); err == nil || !strings.Contains(err.Error(), "CheckpointDir") {
			t.Errorf("%s without CheckpointDir: err = %v, want a CheckpointDir error", name, err)
		}
	}
	if _, err := NewDaemon(Config{LogPath: "fw.log", CheckpointEvery: time.Hour, CheckpointDir: t.TempDir()}); err != nil {
		t.Fatalf("valid checkpoint config rejected: %v", err)
	}
}

// TestDaemonIdleReloadCarriesState: a generation that consumes nothing
// new — reloaded again before the log grows — still hands its restored
// state on, so back-to-back reloads neither lose the engine nor replay
// the log into a fresh one and publish its alerts a second time.
func TestDaemonIdleReloadCarriesState(t *testing.T) {
	log := filepath.Join(t.TempDir(), "fw.log")
	dr := startDaemon(t, Config{LogPath: log, IDS: testIDS(), AdvanceEvery: time.Minute})
	first := append(scanBurst("2001:db8:bad::1", 0, 20), fillers(1, 15)...)
	appendLog(t, log, first)
	dr.waitAlerts(t, 1)

	for gen := 2; gen <= 3; gen++ {
		dr.d.Reload()
		deadline := time.Now().Add(10 * time.Second)
		for dr.d.State().Generation < gen {
			if time.Now().After(deadline) {
				t.Fatalf("generation = %d, want %d", dr.d.State().Generation, gen)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Every generation re-reads the log from its start; the third
	// must skip what the first consumed.
	appendLog(t, log, fillers(40, 41))
	dr.waitRecords(t, uint64(3*len(first)+1))
	dr.stop(t)
	got := alertsJSON(t, dr.alerts())
	if n := strings.Count(got, `"prefix":"2001:db8:bad::1/128"`); n != 1 {
		t.Fatalf("scanner alert published %d times, want once:\n%s", n, got)
	}
}
