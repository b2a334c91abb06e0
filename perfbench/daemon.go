package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"v6scan/internal/firewall"
)

// daemon_resume_tail exists because it is the operator's path: v6scand
// restores a large IDS checkpoint (the read side of the snapshots
// churn_ids_publish writes), catches up a pre-written backlog, then
// follows live appends made by an open-loop generator on a fixed wall
// schedule below the catch-up rate. It times restore, tail → tick →
// SSE alert delivery, and the HTTP read path while ingest runs. It
// bypasses the bus, events, dispatch and the artifact filter.
//
// Stream time is compressed during the live phase — one wall second
// carries one stream hour — so the one-hour scan timeout passes in a
// second and every run sees hundreds of alerts.
func daemonArgs(log, ckpt string) []string {
	return []string{"-i", log, "-listen", "127.0.0.1:0", "-shards", "1",
		"-advance-every", "1m", "-checkpoint-dir", ckpt, "-resume"}
}

const (
	// Stream layout: a prefix the resume checkpoint covers, a backlog
	// written before the daemon starts, then the live phase.
	daemonPrefix  = 3 * time.Hour
	daemonBacklog = 2 * time.Hour
	// compression is stream time per wall time in the live phase.
	compression = 3600
	// chunkWall is the generator's append period.
	chunkWall = 5 * time.Millisecond
	// idsTimeout and idsAdvance are v6scand's defaults (ids.Config and
	// -advance-every 1m), needed to find the record an alert is due at.
	idsTimeout = time.Hour
	idsAdvance = time.Minute
	// pollAPI is the HTTP reader's period during the live phase.
	pollAPI = 50 * time.Millisecond
	// restorePoll and drainPoll are how often /api/state is read while
	// waiting for the restore (tens of milliseconds) and the catch-up
	// (most of a second); each read costs the daemon CPU, so the longer
	// wait is sampled less often.
	restorePoll = time.Millisecond
	drainPoll   = 5 * time.Millisecond
)

// liveWall is the live phase's wall length; with the stream's 200
// scanners per stream hour it yields about a thousand timed alerts.
const liveWall = 6 * time.Second

// liveRunBudget is roughly the wall time of the measured run after the
// catch-up probes: restore, catch-up, live phase, shutdown.
const liveRunBudget = liveWall + 3*time.Second

func daemonTraffic() traffic {
	live := liveWall * compression
	return traffic{
		start: time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC), dur: daemonPrefix + daemonBacklog + live,
		bgPerSec: 3, bg48s: 1 << 16, scansPerHour: 200, spreadPerHour: 5, quietTail: 2 * time.Hour,
	}
}

// daemonPlan is the prepared stream's layout and expected alerts.
type daemonPlan struct {
	Prefix, Backlog, Live int       // record counts
	LiveStart             time.Time // stream time the live phase starts at
	Expected              []expectedAlert
}

// expectedAlert is one alert of the batch reference the resumed daemon
// must publish: the alert line as v6scan prints it, and the index and
// time of the record that makes it due.
type expectedAlert struct {
	Line    string    `json:"line"`
	DueIdx  int       `json:"due_idx"`
	DueTime time.Time `json:"due_time"`
}

// sealAt makes the record at end−1m the only one in [end−3m, end), so
// it fires a tick: the daemon publishes its state at every tick, so the
// state then shows every record before end as consumed.
func sealAt(recs []firewall.Record, end time.Time) []firewall.Record {
	out := recs[:0]
	var sentinel firewall.Record
	placed := false
	for _, r := range recs {
		if !r.Time.Before(end.Add(-3*time.Minute)) && r.Time.Before(end) {
			if !placed {
				sentinel, placed = r, true
			}
			continue
		}
		if placed && !r.Time.Before(end) {
			sentinel.Time = end.Add(-time.Minute)
			out = append(out, sentinel)
			placed = false
		}
		out = append(out, r)
	}
	return out
}

// dueAt mirrors the IDS cadence of the pipeline's sinks and of
// v6scand: the first record arms the mark, then a fire happens at the
// first record at or past mark+every, which becomes the new mark.
func dueAt(last *time.Time, every time.Duration, t time.Time) bool {
	if last.IsZero() || t.Sub(*last) >= every {
		fire := !last.IsZero()
		*last = t
		return fire
	}
	return false
}

// ticks returns the indices of the records the cadence fires at.
func ticks(times []time.Time, every time.Duration) []int {
	var out []int
	var mark time.Time
	for i, t := range times {
		if dueAt(&mark, every, t) {
			out = append(out, i)
		}
	}
	return out
}

// dueIndex returns the record index of the first tick that evicts a
// candidate last seen at last (more than timeout before the tick), or
// -1 when no tick does and only the final flush would.
func dueIndex(times []time.Time, tickIdx []int, last time.Time, timeout time.Duration) int {
	i, _ := slices.BinarySearchFunc(tickIdx, last.Add(timeout), func(idx int, t time.Time) int {
		if times[idx].After(t) {
			return 1
		}
		return -1
	})
	if i == len(tickIdx) {
		return -1
	}
	return tickIdx[i]
}

var alertLine = regexp.MustCompile(`^  (scan from \S+ \[\S+\]: ≈\d+ dsts, \d+ packets, \S+–(\S+?)( \(escalated.*\))?)$`)

func prepDaemon(e *benchEnv, dir string) error {
	tr := daemonTraffic()
	recs := tr.generate(e.seed)
	prefixEnd := tr.start.Add(daemonPrefix)
	liveStart := prefixEnd.Add(daemonBacklog)
	recs = sealAt(sealAt(recs, prefixEnd), liveStart)
	p := &daemonPlan{LiveStart: liveStart}
	for _, r := range recs {
		switch {
		case r.Time.Before(prefixEnd):
			p.Prefix++
		case r.Time.Before(liveStart):
			p.Backlog++
		default:
			p.Live++
		}
	}
	files := map[string][]firewall.Record{
		"prefix.log":  recs[:p.Prefix],
		"backlog.log": recs[p.Prefix : p.Prefix+p.Backlog],
		"catchup.log": recs[:p.Prefix+p.Backlog],
		"live.log":    recs[p.Prefix+p.Backlog:],
		"full.log":    recs,
	}
	for name, rs := range files {
		if err := writeLog(filepath.Join(dir, name), rs); err != nil {
			return err
		}
	}

	// The resume checkpoint: v6scand over the prefix, stopped with
	// SIGTERM, which cuts a final snapshot.
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckpt, 0o755); err != nil {
		return err
	}
	d, err := e.startDaemon(filepath.Join(dir, "prefix.log"), ckpt)
	if err != nil {
		return err
	}
	defer d.kill()
	if _, err := d.waitState(func(s daemonState) bool { return s.Records >= uint64(p.Prefix) }, drainPoll, 30*time.Second); err != nil {
		return fmt.Errorf("cutting the resume checkpoint: %w", err)
	}
	if _, err := d.stop(); err != nil {
		return err
	}

	// The expected alert set: the batch IDS over the whole stream with
	// the daemon's configuration, less the alerts due inside the prefix
	// (published before the cut) or due at no tick (only a final flush
	// would emit them, and the daemon discards those).
	ref, err := e.runProg("v6scan", "-ids", "-agg", "128,64,48,32", "-advance-every", "1m", "-top", "0",
		"-i", filepath.Join(dir, "full.log"))
	if err != nil {
		return err
	}
	times := make([]time.Time, len(recs))
	for i, r := range recs {
		times[i] = r.Time
	}
	tk := ticks(times, idsAdvance)
	for _, line := range strings.Split(string(ref.stdout), "\n")[1:] {
		m := alertLine.FindStringSubmatch(line)
		if m == nil {
			if line != "" {
				return fmt.Errorf("unparsed reference line %q", line)
			}
			continue
		}
		last, err := time.Parse(time.RFC3339, m[2])
		if err != nil {
			return err
		}
		if idx := dueIndex(times, tk, last, idsTimeout); idx >= p.Prefix {
			p.Expected = append(p.Expected, expectedAlert{Line: m[1], DueIdx: idx})
		}
	}
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "plan.json"), b, 0o644)
}

func loadPlan(dir string) (*daemonPlan, error) {
	b, err := os.ReadFile(filepath.Join(dir, "plan.json"))
	if err != nil {
		return nil, err
	}
	p := &daemonPlan{}
	return p, json.Unmarshal(b, p)
}

// daemonProc is one running v6scand.
type daemonProc struct {
	cmd     *exec.Cmd
	started time.Time
	addr    string
	client  *http.Client
	done    chan struct{} // closed once the process has been waited for
	run     procRun
	waitErr error
}

// addrWriter collects a child's stdout and reports the listen address
// from its "serving http://…" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "serving http://"); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				w.addr <- addr
				w.sent = true
			}
		}
	}
	return len(p), nil
}

// startDaemon starts v6scand resuming from ckpt and tailing log, and
// returns once it has printed its listen address.
func (e *benchEnv) startDaemon(log, ckpt string) (*daemonProc, error) {
	cmd := e.command(context.Background(), e.bin("v6scand"), daemonArgs(log, ckpt)...)
	out := &addrWriter{addr: make(chan string, 1)}
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = out, &stderr
	d := &daemonProc{cmd: cmd, done: make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		err := cmd.Wait()
		d.run = finished(cmd.ProcessState, time.Since(d.started), out.buf.Bytes())
		if err != nil {
			d.waitErr = fmt.Errorf("v6scand: %w: %s", err, stderr.Bytes())
		}
		close(d.done)
	}()
	select {
	case d.addr = <-out.addr:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("v6scand exited before listening: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("v6scand did not start listening")
	}
}

// daemonState is the part of /api/state the benchmark reads.
type daemonState struct {
	Generation int    `json:"generation"`
	Records    uint64 `json:"records"`
}

// get fetches one API path; a non-2xx status is an error.
func (d *daemonProc) get(path string) ([]byte, error) {
	resp, err := d.client.Get("http://" + d.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// waitState polls /api/state every period until ok holds, and returns
// the time since the process started.
func (d *daemonProc) waitState(ok func(daemonState) bool, period, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := d.get("/api/state"); err == nil {
			var s daemonState
			if err := json.Unmarshal(b, &s); err != nil {
				return 0, err
			}
			if ok(s) {
				return time.Since(d.started), nil
			}
		}
		select {
		case <-d.done:
			return 0, fmt.Errorf("v6scand exited: %v", d.waitErr)
		case <-time.After(period):
		}
	}
	return 0, errors.New("timed out polling /api/state")
}

// stop sends SIGTERM (drain, final checkpoint, exit) and waits.
func (d *daemonProc) stop() (procRun, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return procRun{}, errors.New("v6scand did not stop on SIGTERM")
	}
	d.client.CloseIdleConnections()
	return d.run, d.waitErr
}

// kill ends the process if it still runs and waits for it.
func (d *daemonProc) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
}

// linkDir hard-links the regular files of src into dst: the daemon
// reads its checkpoint and writes new ones beside it by rename, so the
// prepared files are never modified, and no copy is left for the
// kernel to write back while a run is timed.
func linkDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if err := os.Link(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

// copySynced copies src to dst and syncs it, so no dirty pages of the
// copy are written back while a run is timed.
func copySynced(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// catchUpProbes is the fewest extra restores and catch-ups setup_s and
// records_per_s are the medians of, beside the measured run's own; the
// probes repeat until only the measured run's time is left.
const catchUpProbes = 4

// sseAlert is one alert as the SSE feed delivers it.
type sseAlert struct {
	Seq           uint64    `json:"seq"`
	Prefix        string    `json:"prefix"`
	Level         string    `json:"level"`
	EstimatedDsts uint64    `json:"estimated_dsts"`
	Packets       uint64    `json:"packets"`
	First         time.Time `json:"first"`
	Last          time.Time `json:"last"`
	Escalated     bool      `json:"escalated"`
	recv          time.Time
}

// line renders the alert as v6scan -ids prints it.
func (a sseAlert) line() string {
	esc := ""
	if a.Escalated {
		esc = " (escalated: spread-source entity)"
	}
	return fmt.Sprintf("scan from %v [%v]: ≈%d dsts, %d packets, %v–%v%s",
		a.Prefix, a.Level, a.EstimatedDsts, a.Packets,
		a.First.UTC().Format(time.RFC3339), a.Last.UTC().Format(time.RFC3339), esc)
}

// readSSE reads alert events until the stream ends.
func readSSE(body io.Reader, got func(sseAlert)) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var a sseAlert
		if err := json.Unmarshal([]byte(data), &a); err != nil {
			return err
		}
		a.recv = time.Now()
		got(a)
	}
	return sc.Err()
}

// liveChunk is one scheduled append: records [lo, hi) of the live
// phase, due at offset from the phase's wall start.
type liveChunk struct {
	lo, hi int
	offset time.Duration
}

// liveChunks cuts the live records into the generator's schedule: the
// chunk due at k·chunkWall holds the records whose stream time falls in
// the k-th chunkWall·compression slice of the phase.
func liveChunks(times []time.Time, start time.Time) []liveChunk {
	var out []liveChunk
	step := chunkWall * compression
	for lo := 0; lo < len(times); {
		k := times[lo].Sub(start) / step
		hi := lo
		for hi < len(times) && times[hi].Sub(start)/step == k {
			hi++
		}
		out = append(out, liveChunk{lo, hi, time.Duration(k) * chunkWall})
		lo = hi
	}
	return out
}

// daemonRun is what one measured daemon run observed.
type daemonRun struct {
	setup      time.Duration // start → restored engine
	drain      time.Duration // restored → backlog consumed
	proc       procRun
	records    uint64 // records the daemon consumed
	alerts     map[string]sseAlert
	seqGaps    int
	dupes      int
	latencies  []float64 // ms, live-phase alerts only
	late       []float64 // ms the generator appended behind schedule
	apiMS      []float64
	apiErrors  int
	missing    []string
	unexpected []string
}

// liveRun runs one resumed daemon through catch-up and the live phase.
func (e *benchEnv) liveRun(dir string, p *daemonPlan) (*daemonRun, error) {
	live, err := readRecords(filepath.Join(dir, "live.log"))
	if err != nil {
		return nil, err
	}
	liveBytes, err := os.ReadFile(filepath.Join(dir, "live.log"))
	if err != nil {
		return nil, err
	}
	times := make([]time.Time, len(live))
	for i, r := range live {
		times[i] = r.Time
	}
	chunks := liveChunks(times, p.LiveStart)

	work, err := e.scratchDir("daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	log := filepath.Join(work, "fw.log")
	if err := copySynced(log, filepath.Join(dir, "catchup.log")); err != nil {
		return nil, err
	}
	run := &daemonRun{alerts: map[string]sseAlert{}}
	var mu sync.Mutex
	var received []sseAlert
	sseDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One SSE connection for the whole run, from sequence 0, opened as
	// soon as the engine is restored.
	d, err := e.catchUp(dir, log, p, run, func(d *daemonProc) error {
		req, err := http.NewRequestWithContext(ctx, "GET", "http://"+d.addr+"/api/alerts/stream?from=0", nil)
		if err != nil {
			return err
		}
		resp, err := (&http.Client{}).Do(req)
		if err != nil {
			return err
		}
		go func() {
			defer resp.Body.Close()
			sseDone <- readSSE(resp.Body, func(a sseAlert) {
				mu.Lock()
				received = append(received, a)
				mu.Unlock()
			})
		}()
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.kill()

	// Live phase: the open-loop generator and the API reader run
	// concurrently; the generator never waits for the daemon.
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	liveStart := time.Now().Add(100 * time.Millisecond)
	stopAPI := make(chan struct{})
	var apiWG sync.WaitGroup
	apiWG.Add(1)
	go func() {
		defer apiWG.Done()
		paths := []string{"/api/state", "/api/alerts?offset=0&limit=100"}
		tick := time.NewTicker(pollAPI)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopAPI:
				return
			case <-tick.C:
			}
			t := time.Now()
			_, err := d.get(paths[i%len(paths)])
			ms := float64(time.Since(t).Microseconds()) / 1000
			mu.Lock()
			run.apiMS = append(run.apiMS, ms)
			if err != nil {
				run.apiErrors++
			}
			mu.Unlock()
		}
	}()
	sched := make([]time.Time, len(chunks))
	for k, c := range chunks {
		sched[k] = liveStart.Add(c.offset)
		time.Sleep(time.Until(sched[k]))
		if _, err := f.Write(liveBytes[c.lo*firewall.RecordWireSize : c.hi*firewall.RecordWireSize]); err != nil {
			close(stopAPI)
			apiWG.Wait()
			return nil, err
		}
		run.late = append(run.late, float64(time.Since(sched[k]).Microseconds())/1000)
	}

	// Wait for the expected alerts (or a deadline), then stop.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n >= len(p.Expected) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stopAPI)
	apiWG.Wait()
	var st daemonState
	if b, err := d.get("/api/state"); err == nil {
		json.Unmarshal(b, &st)
	}
	run.records = st.Records
	if run.proc, err = d.stop(); err != nil {
		return nil, err
	}
	cancel()
	<-sseDone

	// Check the alert set and time the live ones from their due append.
	chunkOf := make([]int, len(live))
	for k, c := range chunks {
		for i := c.lo; i < c.hi; i++ {
			chunkOf[i] = k
		}
	}
	var next uint64
	for _, a := range received {
		if a.Seq != next {
			run.seqGaps++
		}
		next = a.Seq + 1
		l := a.line()
		if _, dup := run.alerts[l]; dup {
			run.dupes++ // at-least-once re-publish at the resume cut
			continue
		}
		run.alerts[l] = a
	}
	expected := map[string]bool{}
	liveFrom := p.Prefix + p.Backlog
	for _, x := range p.Expected {
		expected[x.Line] = true
		a, ok := run.alerts[x.Line]
		if !ok {
			run.missing = append(run.missing, x.Line)
			continue
		}
		if x.DueIdx >= liveFrom {
			due := sched[chunkOf[x.DueIdx-liveFrom]]
			run.latencies = append(run.latencies, float64(a.recv.Sub(due).Microseconds())/1000)
		}
	}
	for l := range run.alerts {
		if !expected[l] {
			run.unexpected = append(run.unexpected, l)
		}
	}
	return run, nil
}

// readRecords decodes a whole log file.
func readRecords(path string) ([]firewall.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rd := firewall.NewReader(bufio.NewReaderSize(f, 1<<20))
	var out []firewall.Record
	for {
		batch, err := rd.NextBatch(nil, 4096)
		out = append(out, batch...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// catchUp starts a daemon resuming from a fresh copy of the prepared
// checkpoint and tailing log (prefix and backlog), records in run the
// time until /api/state shows the restored engine and then the time
// until it shows the backlog consumed, and returns the daemon still
// running. restored, when non-nil, runs as soon as the engine is
// restored.
func (e *benchEnv) catchUp(dir, log string, p *daemonPlan, run *daemonRun, restored func(*daemonProc) error) (*daemonProc, error) {
	ckpt, err := e.scratchDir("ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckpt) // read once, at restore
	if err := linkDir(filepath.Join(dir, "ckpt"), ckpt); err != nil {
		return nil, err
	}
	d, err := e.startDaemon(log, ckpt)
	if err != nil {
		return nil, err
	}
	if run.setup, err = d.waitState(func(s daemonState) bool { return s.Generation >= 1 }, restorePoll, 30*time.Second); err != nil {
		d.kill()
		return nil, err
	}
	if restored != nil {
		if err := restored(d); err != nil {
			d.kill()
			return nil, err
		}
	}
	want := uint64(p.Prefix + p.Backlog)
	end, err := d.waitState(func(s daemonState) bool { return s.Records >= want }, drainPoll, 30*time.Second)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("catching up the backlog: %w", err)
	}
	run.drain = end - run.setup
	return d, nil
}

func runDaemon(e *benchEnv, dir string) (*outcome, error) {
	p, err := loadPlan(dir)
	if err != nil {
		return nil, err
	}
	var setup, drain, cpu, rss []float64 // unscaled
	var setupScaled, rpsScaled, cpuScaled []float64
	cal := &calibrated{e: e}
	if err := cal.start(); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(drain) < catchUpProbes || time.Since(start) < time.Duration(e.seconds)*time.Second-liveRunBudget {
		probe := &daemonRun{}
		d, err := e.catchUp(dir, filepath.Join(dir, "catchup.log"), p, probe, nil)
		if err != nil {
			return nil, err
		}
		d.kill()
		setup, drain = append(setup, probe.setup.Seconds()), append(drain, probe.drain.Seconds())
		cpu = append(cpu, float64(d.run.cpu.Nanoseconds())/float64(p.Prefix+p.Backlog))
		rss = append(rss, float64(d.run.rssKiB)/1024)
		if err := cal.add(); err != nil {
			return nil, err
		}
		k, kCPU := cal.kWall[len(cal.kWall)-1], cal.kCPU[len(cal.kCPU)-1]
		setupScaled = append(setupScaled, probe.setup.Seconds()/k)
		rpsScaled = append(rpsScaled, float64(p.Backlog)/probe.drain.Seconds()*k)
		cpuScaled = append(cpuScaled, cpu[len(cpu)-1]/kCPU)
	}
	run, err := e.liveRun(dir, p)
	if err != nil {
		return nil, err
	}
	oc, err := daemonOutcome(p, run)
	if err != nil {
		return nil, err
	}
	// Set-up time, rates and costs are medians over the catch-up
	// probes, which all do the same work — restore, then the prefix
	// (skipped) and the backlog — each scaled by the host-speed
	// calibration around it. The measured run adds the live phase,
	// timed by latency; its own restore and catch-up are kept unscaled.
	oc.metrics = map[string]float64{
		"setup_s":           median(setupScaled),
		"records_per_s":     median(rpsScaled),
		"cpu_ns_per_record": median(cpuScaled),
		"peak_rss_mib":      median(rss),
	}
	oc.details["setup_s"], oc.details["records_per_s"], oc.details["cpu_ns_per_record"] = setupScaled, rpsScaled, cpuScaled
	oc.details["unscaled_setup_s"], oc.details["drain_s"], oc.details["unscaled_cpu_ns_per_record"] = setup, drain, cpu
	oc.details["live_run_setup_s"], oc.details["live_run_drain_s"] = run.setup.Seconds(), run.drain.Seconds()
	oc.details["calibration_wall_s"], oc.details["calibration_cpu_s"] = cal.wall, cal.cpu
	oc.details["records_per_s_spread"], oc.details["catchup_peak_rss_mib"] = spread(rpsScaled), rss
	return oc, nil
}

func daemonOutcome(p *daemonPlan, run *daemonRun) (*outcome, error) {
	oc := &outcome{
		attempted: len(p.Expected) + len(run.apiMS),
		failed:    len(run.missing) + len(run.unexpected) + run.seqGaps + run.apiErrors,
		digest:    alertDigest(slices.Collect(maps.Keys(run.alerts))),
	}
	if run.records == 0 {
		return nil, errors.New("daemon reported no records")
	}
	p50, err50 := percentile(run.latencies, 0.50)
	p95, err95 := percentile(run.latencies, 0.95)
	late95, errLate := percentile(run.late, 0.95)
	if err := errors.Join(err50, err95, errLate); err != nil {
		return nil, fmt.Errorf("daemon run undersampled: %w", err)
	}
	oc.details = map[string]any{
		"backlog_records": p.Backlog, "records": run.records,
		"live_run_cpu_ns_per_record": float64(run.proc.cpu.Nanoseconds()) / float64(run.records),
		"live_run_peak_rss_mib":      float64(run.proc.rssKiB) / 1024, "alerts_expected": len(p.Expected), "alerts_received": len(run.alerts),
		"alert_samples": len(run.latencies), "alert_latency_ms_p50": p50, "alert_latency_ms_p95": p95,
		"generator_late_ms_p95": late95, "api_calls": len(run.apiMS), "api_get_ms_p50": median(run.apiMS),
		"api_errors": run.apiErrors, "sse_seq_gaps": run.seqGaps, "republished": run.dupes,
		"missing": run.missing, "unexpected": run.unexpected,
	}
	return oc, nil
}

// alertDigest hashes a set of alert lines in sorted order.
func alertDigest(lines []string) string {
	lines = slices.Clone(lines)
	slices.Sort(lines)
	return digest([]byte(strings.Join(slices.Compact(lines), "\n")))
}
