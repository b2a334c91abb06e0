package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/pipeline"
	"v6scan/internal/sim"
)

// cdn_filter_detect exists because it is the paper's offline path: a
// multi-week raw (pre-filter) CDN telescope log, SMTP/IPsec artifact
// sources included, through the 5-duplicate artifact filter into the
// multi-level scan detector. Decode, the filter and core do all the
// work; dispatch, ids, events, bus, checkpoint and serve are never
// touched, so it is the "no change expected" side for those layers.
func cdnArgs(log, _ string) []string {
	return []string{"-filter", "-decode-workers", "2", "-top", "0", "-i", log}
}

// cdnWeeks of simulated telescope traffic make about 1M raw records.
const cdnWeeks = 12

func prepCDN(e *benchEnv, dir string) error {
	f, err := os.Create(filepath.Join(dir, "input.log"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	w := firewall.NewWriter(bw)
	start := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	cfg := sim.DefaultConfig()
	cfg.Telescope.Seed = int64(e.seed)
	cfg.Census.Seed = int64(e.seed) + 1
	cfg.Census.Start, cfg.Census.End = start, start.Add(cdnWeeks*7*24*time.Hour)
	cfg.Detector.WeekEpoch = start
	// The raw tap sees records before the collection policy; the day
	// sorter puts each day in time order, as a firewall log is written.
	cfg.RawSink = pipeline.Chain().DaySort().Into(pipeline.NewLogSink(w))
	if _, err := sim.Run(cfg); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.log"), nil, 0o644); err != nil {
		return err
	}
	// Reference: the same detection with serial decode.
	ref, err := e.runProg("v6scan", "-filter", "-decode-workers", "1", "-top", "0", "-i", filepath.Join(dir, "input.log"))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ref.txt"), ref.stdout, 0o644)
}

func runCDN(e *benchEnv, dir string) (*outcome, error) {
	return measureBatch(e, dir, cdnArgs)
}

// churn_ids_publish exists because it is the inline-IDS path across
// the event bus: two publishers split the log, route records by /48
// into topics, and one aggregator merges them into a two-shard IDS
// that ticks every stream minute and snapshots every stream hour. The
// log is hostile churn: most sources send 1–3 records from random /64s
// of many /48s, so candidates are inserted and evicted at every level,
// plus single-address scanners and spread-source scanners (the
// paper's AS #18 pattern). events, bus, merge, dispatch, u128idx's
// write side and checkpoint carry it; it bypasses the artifact filter
// and the offline detector.
func churnArgs(log, ckpt string) []string {
	return []string{"-ids", "-publish", "2", "-shards", "2", "-advance-every", "1m",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "1h", "-top", "0", "-i", log}
}

// churnTraffic is 12 stream hours, about 240k records; candidates stay
// far below ids.Config.MaxCandidates.
var churnTraffic = traffic{
	start: time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC), dur: 12 * time.Hour,
	bgPerSec: 5, bg48s: 1 << 16, scansPerHour: 12, spreadPerHour: 1, quietTail: 2 * time.Hour,
}

func prepChurn(e *benchEnv, dir string) error {
	log := filepath.Join(dir, "input.log")
	if err := writeLog(log, churnTraffic.generate(e.seed)); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.log"), nil, 0o644); err != nil {
		return err
	}
	// Reference: the serial IDS over the same log.
	ref, err := e.runProg("v6scan", "-ids", "-advance-every", "1m", "-top", "0", "-i", log)
	if err != nil {
		return err
	}
	if bytes.Contains(ref.stdout, []byte("dropped by the MaxCandidates bound")) {
		return fmt.Errorf("churn reference dropped candidates; shrink the workload")
	}
	return os.WriteFile(filepath.Join(dir, "ref.txt"), ref.stdout, 0o644)
}

func runChurn(e *benchEnv, dir string) (*outcome, error) {
	return measureBatch(e, dir, churnArgs)
}

// setupProbesPerPass is how many zero-record invocations run before
// each pass; setup_s is their median.
const setupProbesPerPass = 8

// measureBatch times a batch command given its arguments for a log
// and a fresh checkpoint directory. Whole passes over the input run
// until the run's seconds are used (at least three), each checked
// byte for byte against the reference output; rates and costs are
// medians over the passes. setup_s is the median wall time of the
// command over an empty log. All three are scaled by the host-speed
// calibration around each pass.
func measureBatch(e *benchEnv, dir string, args func(log, ckpt string) []string) (*outcome, error) {
	ref, err := os.ReadFile(filepath.Join(dir, "ref.txt"))
	if err != nil {
		return nil, err
	}
	log := filepath.Join(dir, "input.log")
	// Untimed: bring the log into the page cache.
	if _, err := os.ReadFile(log); err != nil {
		return nil, err
	}
	pass := func(log string) (procRun, error) {
		ckpt, err := e.scratchDir("ckpt-")
		if err != nil {
			return procRun{}, err
		}
		defer os.RemoveAll(ckpt)
		return e.runProg("v6scan", args(log, ckpt)...)
	}
	start := time.Now()
	var setup, rps, cpu, rss, walls []float64 // unscaled
	var setupScaled, rpsScaled, cpuScaled []float64
	oc := &outcome{digest: digest(ref)}
	cal := &calibrated{e: e}
	if err := cal.start(); err != nil {
		return nil, err
	}
	for len(walls) < 3 || time.Since(start) < time.Duration(e.seconds)*time.Second {
		// Setup probes are spread over the run, so they sample the
		// same machine state as the passes.
		var probes []float64
		for i := 0; i < setupProbesPerPass; i++ {
			r, err := pass(filepath.Join(dir, "empty.log"))
			if err != nil {
				return nil, err
			}
			probes = append(probes, r.wall.Seconds())
		}
		setup = append(setup, probes...)
		r, err := pass(log)
		if err != nil {
			return nil, err
		}
		oc.attempted++
		var n int
		if !bytes.Equal(r.stdout, ref) {
			oc.failed++
		}
		if _, err := fmt.Sscanf(string(r.stdout), "processed %d records", &n); err != nil || n == 0 {
			return nil, fmt.Errorf("no processed-record count in output: %q", firstLine(r.stdout))
		}
		walls = append(walls, r.wall.Seconds())
		rps = append(rps, float64(n)/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/float64(n))
		rss = append(rss, float64(r.rssKiB)/1024)
		if err := cal.add(); err != nil {
			return nil, err
		}
		k, kCPU := cal.kWall[len(cal.kWall)-1], cal.kCPU[len(cal.kCPU)-1]
		for _, p := range probes {
			setupScaled = append(setupScaled, p/k)
		}
		rpsScaled = append(rpsScaled, rps[len(rps)-1]*k)
		cpuScaled = append(cpuScaled, cpu[len(cpu)-1]/kCPU)
	}
	oc.metrics = map[string]float64{
		"setup_s":           median(setupScaled),
		"records_per_s":     median(rpsScaled),
		"cpu_ns_per_record": median(cpuScaled),
		"peak_rss_mib":      median(rss),
	}
	oc.details = map[string]any{"pass_wall_s": walls, "peak_rss_mib": rss,
		"setup_s": setupScaled, "records_per_s": rpsScaled, "cpu_ns_per_record": cpuScaled,
		"unscaled_setup_s": setup, "unscaled_records_per_s": rps, "unscaled_cpu_ns_per_record": cpu,
		"calibration_wall_s": cal.wall, "calibration_cpu_s": cal.cpu,
		"records_per_s_spread": spread(rpsScaled), "unscaled_records_per_s_spread": spread(rps)}
	return oc, nil
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	return string(line)
}
