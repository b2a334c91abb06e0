package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"v6scan/internal/bus"
	"v6scan/internal/core"
	"v6scan/internal/dispatch"
	"v6scan/internal/events"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/netaddr6"
	"v6scan/internal/pipeline"
	"v6scan/internal/u128idx"
)

// The traced run replays a workload in this process: the same
// computation as the untraced program, assembled from the layers'
// public functions with a span around every call (batched: one span
// per call on a batch of records). It must reproduce the untraced
// run's output digest. The root span "run" covers that computation;
// measurements of single layers that the program reaches only through
// another layer (u128idx, decode in the daemon, batch fill) run after
// it, outside the root.

// perLayer are the per-layer metrics every traced run reports; a layer
// a workload never reaches reports 0.
var perLayer = []metricDef{
	{"firewall.decode_ns_per_record", "ns"},
	{"firewall.artifact_ns_per_record", "ns"},
	{"firewall.artifact_pass_ratio", "ratio"},
	{"firewall.artifact_buffered_peak", "records"},
	{"pipeline.merge_ns_per_record", "ns"},
	{"pipeline.batch_fill_mean", "ratio"},
	{"pipeline.tail_ns_per_record", "ns"},
	{"pipeline.tail_pickup_ms_p50", "ms"},
	{"pipeline.tail_pickup_ms_p95", "ms"},
	{"dispatch.partition_ns_per_record", "ns"},
	{"dispatch.shard_skew", "ratio"},
	{"dispatch.barrier_wait_ns_total", "ns"},
	{"u128idx.probe_ns_per_op", "ns"},
	{"u128idx.insert_share", "ratio"},
	{"u128idx.deletes", "count"},
	{"u128idx.peak_len", "count"},
	{"core.process_ns_per_record", "ns"},
	{"core.sessions_peak", "count"},
	{"core.scans", "count"},
	{"ids.process_ns_per_record", "ns"},
	{"ids.tick_ns_p50", "ns"},
	{"ids.ticks", "count"},
	{"ids.candidates_peak", "count"},
	{"ids.alert_share", "ratio"},
	{"ids.dropped_candidates", "count"},
	{"checkpoint.snapshot_ms_p50", "ms"},
	{"checkpoint.snapshot_bytes", "bytes"},
	{"checkpoint.snapshots", "count"},
	{"checkpoint.restore_ms", "ms"},
	{"events.encode_ns_per_record", "ns"},
	{"events.decode_ns_per_record", "ns"},
	{"events.bytes_per_record", "bytes"},
	{"bus.publish_ns_per_envelope", "ns"},
	{"bus.pull_ns_per_envelope", "ns"},
	{"bus.envelopes", "count"},
	{"serve.alert_latency_ms_p50", "ms"},
	{"serve.alert_latency_ms_p95", "ms"},
	{"serve.alert_samples", "count"},
	{"serve.generator_late_ms_p95", "ms"},
	{"serve.api_get_ms_p50", "ms"},
	{"serve.sse_dropped", "count"},
	{"firewall.self_share", "ratio"},
	{"pipeline.self_share", "ratio"},
	{"dispatch.self_share", "ratio"},
	{"core.self_share", "ratio"},
	{"ids.self_share", "ratio"},
	{"checkpoint.self_share", "ratio"},
	{"events.self_share", "ratio"},
	{"bus.self_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// layerMetrics accumulates a traced run's per-layer metrics.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	m := layerMetrics{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// spanStats returns the summed and the single durations of the spans
// named name.
func spanStats(tr *tracer, name string) (total time.Duration, durs []float64) {
	for _, s := range tr.snapshot() {
		if s.Name == name {
			d := time.Duration(s.End - s.Start)
			total += d
			durs = append(durs, float64(d))
		}
	}
	return total, durs
}

// perRecord is the summed duration of the named spans per record.
func perRecord(tr *tracer, name string, n int) float64 {
	total, _ := spanStats(tr, name)
	return float64(total.Nanoseconds()) / float64(max(n, 1))
}

// rootSpan is the id of the traced computation's root span.
func rootSpan(spans []span) int {
	for _, s := range spans {
		if s.Name == "run" {
			return s.ID
		}
	}
	return 0
}

// tracedReport summarises the spans under the root.
func tracedReport(tr *tracer) *layerReport {
	spans := tr.snapshot()
	rep := summarize(spans, rootSpan(spans))
	return &rep
}

// finish fills the self-time shares and the trace's own metrics:
// overhead against the untraced wall time of the same computation,
// and the share of the root's wall no layer span covers.
func (m layerMetrics) finish(tr *tracer, untracedWall float64) {
	rep := tracedReport(tr)
	for layer, share := range rep.SelfShare {
		if _, ok := m[layer+".self_share"]; ok {
			m[layer+".self_share"] = share
		}
	}
	m["trace.unattributed_share"] = rep.UnattributedShare
	m["trace.overhead_share"] = float64(rep.WallNS)/1e9/untracedWall - 1
}

// detail reads a float detail recorded by the untraced run.
func detail(oc *outcome, key string) float64 {
	switch v := oc.details[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case []float64:
		return median(v)
	}
	return 0
}

// cliLevels are cmd/v6scan's default aggregation levels (-agg
// 128,64,48), used by its detector and its IDS; the other detection
// parameters are the packages' defaults.
var cliLevels = []netaddr6.AggLevel{netaddr6.Agg128, netaddr6.Agg64, netaddr6.Agg48}

func tracedCDN(e *benchEnv, dir string, un *outcome, tr *tracer) (map[string]float64, string, error) {
	m := newLayerMetrics()
	data, err := os.ReadFile(filepath.Join(dir, "input.log"))
	if err != nil {
		return nil, "", err
	}
	cfg := core.DefaultConfig()
	cfg.Levels = cliLevels
	filter := firewall.NewArtifactFilter()
	det := core.NewDetector(cfg)
	var (
		recs, out         []firewall.Record
		detected          = make([]firewall.Record, 0, len(data)/firewall.RecordWireSize)
		in, buffered      int
		bufPeak, sessPeak int
	)
	process := func(root int) error {
		var err error
		if len(out) > 0 {
			tr.do("core.process", root, func() { err = det.ProcessBatch(out) })
			detected = append(detected, out...)
		}
		sess := 0
		for _, l := range cliLevels {
			sess += det.OpenSessions(l)
		}
		sessPeak = max(sessPeak, sess)
		return err
	}
	root := tr.begin("run", 0)
	const batch = pipeline.DefaultBatchSize * firewall.RecordWireSize
	for off := 0; off < len(data); off += batch {
		var err error
		tr.do("firewall.decode", root, func() {
			recs, err = firewall.DecodeChunk(data[off:min(off+batch, len(data))], recs[:0])
		})
		if err != nil {
			return nil, "", err
		}
		in += len(recs)
		tr.do("firewall.artifact", root, func() {
			out = out[:0]
			for _, r := range recs {
				out = append(out, filter.Push(r)...)
			}
		})
		buffered += len(recs) - len(out)
		bufPeak = max(bufPeak, buffered)
		if err := process(root); err != nil {
			return nil, "", err
		}
	}
	tr.do("firewall.artifact", root, func() { out = filter.Close() })
	if err := process(root); err != nil {
		return nil, "", err
	}
	tr.do("core.finish", root, det.Finish)
	var text bytes.Buffer
	fmt.Fprintf(&text, "processed %d records\n", len(detected))
	scans := 0
	for _, lvl := range cliLevels {
		var ss []core.Scan
		tr.do("core.scans", root, func() { ss = det.Scans(lvl) })
		scans += len(ss)
		tr.do("bench.format", root, func() { formatScans(&text, lvl, ss) })
	}
	tr.end(root)

	m["firewall.decode_ns_per_record"] = perRecord(tr, "firewall.decode", in)
	m["firewall.artifact_ns_per_record"] = perRecord(tr, "firewall.artifact", in)
	m["firewall.artifact_pass_ratio"] = float64(len(detected)) / float64(in)
	m["firewall.artifact_buffered_peak"] = float64(bufPeak)
	m["core.process_ns_per_record"] = perRecord(tr, "core.process", len(detected))
	m["core.sessions_peak"] = float64(sessPeak)
	m["core.scans"] = float64(scans)
	m.finish(tr, detail(un, "pass_wall_s"))

	fill, err := batchFill(tr, filepath.Join(dir, "input.log"))
	if err != nil {
		return nil, "", err
	}
	m["pipeline.batch_fill_mean"] = fill
	m.replayIndex(tr, detected, cliLevels, 0)
	return m, digest(text.Bytes()), nil
}

// formatScans prints one level's scan table as cmd/v6scan does.
func formatScans(w *bytes.Buffer, lvl netaddr6.AggLevel, scans []core.Scan) {
	fmt.Fprintf(w, "\n=== %s: %d scans ===\n", lvl, len(scans))
	sort.Slice(scans, func(i, j int) bool { return scans[i].Packets > scans[j].Packets })
	for _, s := range scans {
		fmt.Fprintf(w, "  %-30s %8d pkts %6d dsts %5d ports %3d srcs %v [%s]\n",
			s.Source, s.Packets, s.Dsts, s.NumPorts(), s.SrcAddrs,
			s.Duration().Round(time.Second), s.Class())
	}
}

// batchFill is the mean occupancy of the batches the program's
// two-worker parallel log source emits.
func batchFill(tr *tracer, path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var recs, batches int
	id := tr.begin("pipeline.source", 0)
	err = pipeline.NewParallelLogSource(f, fi.Size(), 2).EmitBatch(pipeline.DefaultBatchSize, func(b []firewall.Record) error {
		recs += len(b)
		batches++
		return nil
	})
	tr.end(id)
	return float64(recs) / float64(max(batches, 1)) / pipeline.DefaultBatchSize, err
}

// replayIndex drives u128idx.Index with the per-level key stream of
// recs, as the detector and IDS tables see it: one lookup-or-insert
// per record and level, and, when every > 0, a sweep deleting keys idle
// longer than the IDS timeout at each tick of that cadence.
func (m layerMetrics) replayIndex(tr *tracer, recs []firewall.Record, levels []netaddr6.AggLevel, every time.Duration) {
	type table struct {
		ix   *u128idx.Index
		last []time.Time
		free []uint32
	}
	tabs := make([]table, len(levels))
	for i := range tabs {
		tabs[i].ix = u128idx.NewIndex(0)
	}
	var ops, inserts, deletes, peak int
	var mark time.Time
	id := tr.begin("u128idx.replay", 0)
	for _, r := range recs {
		if every > 0 && (mark.IsZero() || r.Time.Sub(mark) >= every) {
			if !mark.IsZero() {
				for i := range tabs {
					t := &tabs[i]
					t.ix.Range(func(k netaddr6.U128, v uint32) bool {
						if r.Time.Sub(t.last[v]) > idsTimeout {
							t.ix.Delete(k)
							t.free = append(t.free, v)
							deletes++
						}
						return true
					})
				}
			}
			mark = r.Time
		}
		src := netaddr6.ToU128(r.Src)
		n := 0
		for i, l := range levels {
			t := &tabs[i]
			key := src.Mask(int(l))
			vp, existed := t.ix.RefH(u128idx.Hash(key), key)
			ops++
			if !existed {
				inserts++
				if k := len(t.free); k > 0 {
					*vp = t.free[k-1]
					t.free = t.free[:k-1]
				} else {
					*vp = uint32(len(t.last))
					t.last = append(t.last, time.Time{})
				}
			}
			t.last[*vp] = r.Time
			n += t.ix.Len()
		}
		peak = max(peak, n)
	}
	tr.end(id)
	total, _ := spanStats(tr, "u128idx.replay")
	m["u128idx.probe_ns_per_op"] = float64(total.Nanoseconds()) / float64(max(ops+deletes, 1))
	m["u128idx.insert_share"] = float64(inserts) / float64(max(ops, 1))
	m["u128idx.deletes"] = float64(deletes)
	m["u128idx.peak_len"] = float64(peak)
}

func tracedChurn(e *benchEnv, dir string, un *outcome, tr *tracer) (map[string]float64, string, error) {
	m := newLayerMetrics()
	data, err := os.ReadFile(filepath.Join(dir, "input.log"))
	if err != nil {
		return nil, "", err
	}
	ckptDir, err := e.scratchDir("traced-ckpt-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(ckptDir)
	ctx := context.Background()
	level := dispatch.CoarsestLevel(cliLevels)
	const pubs, topicsPer = 2, 4
	var topics []string
	for p := 0; p < pubs; p++ {
		topics = append(topics, events.RecordTopics(fmt.Sprintf("pub%d", p), topicsPer)...)
	}
	b := bus.New()
	defer b.Close()
	sub, err := b.Subscribe(bus.DefaultDepth, topics...)
	if err != nil {
		return nil, "", err
	}
	defer sub.Close()

	root := tr.begin("run", 0)
	// Publishers: decode each chunk of the log, route records by /48
	// to topics, and send each batch's per-topic records as one
	// envelope; the aggregator pulls and decodes it at once.
	topicRecs := make([][]firewall.Record, len(topics))
	var (
		in, envs, wireBytes int
		recs                []firewall.Record
		enc                 []byte
		dec                 events.Envelope
		stage               = make([][]firewall.Record, topicsPer)
		seq                 = make([]uint64, len(topics))
	)
	for p, c := range firewall.PlanChunks(int64(len(data)), pubs) {
		chunk := data[c.Offset : c.Offset+c.Length]
		const batch = pipeline.DefaultBatchSize * firewall.RecordWireSize
		for off := 0; off < len(chunk); off += batch {
			tr.do("firewall.decode", root, func() {
				recs, err = firewall.DecodeChunk(chunk[off:min(off+batch, len(chunk))], recs[:0])
			})
			if err != nil {
				return nil, "", err
			}
			in += len(recs)
			tr.do("dispatch.partition", root, func() {
				for i := range stage {
					stage[i] = stage[i][:0]
				}
				for _, r := range recs {
					i := dispatch.Partition(r.Src, level, topicsPer)
					stage[i] = append(stage[i], r)
				}
			})
			for i, part := range stage {
				if len(part) == 0 {
					continue
				}
				t := p*topicsPer + i
				env := events.Envelope{Kind: events.KindRecords, Topic: topics[t], Seq: seq[t], Records: part}
				seq[t]++
				tr.do("events.encode", root, func() { enc, err = env.Append(enc[:0]) })
				if err != nil {
					return nil, "", err
				}
				tr.do("bus.publish", root, func() { err = b.Publish(ctx, topics[t], enc) })
				if err != nil {
					return nil, "", err
				}
				var msg bus.Msg
				tr.do("bus.pull", root, func() { msg, err = sub.Pull(ctx) })
				if err != nil {
					return nil, "", err
				}
				tr.do("events.decode", root, func() { err = dec.Decode(msg.Data) })
				if err != nil {
					return nil, "", err
				}
				envs++
				wireBytes += len(msg.Data)
				topicRecs[t] = append(topicRecs[t], dec.Records...)
			}
		}
	}
	// Aggregator: merge the topics in time order, publisher-major on
	// ties, as the program's subscriber-side merge does.
	srcs := make([]pipeline.Source, len(topicRecs))
	for i, rs := range topicRecs {
		srcs[i] = pipeline.SliceSource(rs)
	}
	merged := make([]firewall.Record, 0, in)
	var fills []float64
	tr.do("pipeline.merge", root, func() {
		err = pipeline.NewMergeSource(srcs...).EmitBatch(pipeline.DefaultBatchSize, func(b []firewall.Record) error {
			merged = append(merged, b...)
			fills = append(fills, float64(len(b))/pipeline.DefaultBatchSize)
			return nil
		})
	})
	if err != nil {
		return nil, "", err
	}
	alerts, st, err := shardedIDS(tr, root, merged, cliLevels, ckptDir)
	if err != nil {
		return nil, "", err
	}
	var text bytes.Buffer
	tr.do("bench.format", root, func() {
		fmt.Fprintf(&text, "processed %d records: %d IDS alerts\n", len(merged), len(alerts))
		for _, a := range alerts {
			fmt.Fprintf(&text, "  %s\n", a)
		}
	})
	tr.end(root)

	m["firewall.decode_ns_per_record"] = perRecord(tr, "firewall.decode", in)
	m["dispatch.partition_ns_per_record"] = perRecord(tr, "dispatch.partition", in)
	m["events.encode_ns_per_record"] = perRecord(tr, "events.encode", in)
	m["events.decode_ns_per_record"] = perRecord(tr, "events.decode", in)
	m["events.bytes_per_record"] = float64(wireBytes) / float64(in)
	m["bus.publish_ns_per_envelope"] = perRecord(tr, "bus.publish", envs)
	m["bus.pull_ns_per_envelope"] = perRecord(tr, "bus.pull", envs)
	m["bus.envelopes"] = float64(envs)
	m["pipeline.merge_ns_per_record"] = perRecord(tr, "pipeline.merge", len(merged))
	m["pipeline.batch_fill_mean"] = mean(fills)
	if err := m.idsStats(tr, st, len(merged)); err != nil {
		return nil, "", err
	}
	m.finish(tr, detail(un, "pass_wall_s"))
	m.replayIndex(tr, merged, cliLevels, idsAdvance)
	return m, digest(text.Bytes()), nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// idsRunStats is what the traced IDS stage counted.
type idsRunStats struct {
	mu              sync.Mutex
	ticks           int
	evicted, alerts int
	candPeak        int
	shardRecs       []int
	dropped         uint64
	snapshots       int
	snapshotBytes   int
}

func candidates(e *ids.Engine) int {
	n := 0
	for _, l := range e.Config().Levels {
		n += e.Candidates(l)
	}
	return n
}

// shardedIDS runs recs through the two-shard IDS as cmd/v6scan -ids
// -shards 2 -advance-every 1m -checkpoint-every 1h does: a dispatcher
// partitions records by coarsest prefix to per-shard engines, a tick
// mark goes to every shard each stream minute, and each stream hour
// the shards are synchronised and snapshotted. It returns the merged
// alert list in the engine's order.
func shardedIDS(tr *tracer, root int, recs []firewall.Record, levels []netaddr6.AggLevel, ckptDir string) ([]ids.Alert, *idsRunStats, error) {
	const shards = 2
	cfg := ids.DefaultConfig()
	cfg.Levels = levels
	engines := make([]*ids.Engine, shards)
	for i := range engines {
		engines[i] = ids.New(cfg)
	}
	st := &idsRunStats{shardRecs: make([]int, shards)}
	peaks := make([]int, shards)
	d := dispatch.New(dispatch.Config{Shards: shards, Level: dispatch.CoarsestLevel(levels)},
		func(shard int, rs []firewall.Record, mark time.Time) error {
			e := engines[shard]
			if !mark.IsZero() {
				before := candidates(e)
				tr.do("ids.tick", root, func() { e.Tick(mark) })
				after := candidates(e)
				st.mu.Lock()
				st.evicted += before - after
				st.mu.Unlock()
				peaks[shard] = max(peaks[shard], before)
			}
			if len(rs) > 0 {
				tr.do("ids.process", root, func() { e.ProcessBatch(rs) })
				st.mu.Lock()
				st.shardRecs[shard] += len(rs)
				st.mu.Unlock()
			}
			return nil
		})
	var lastAdv, lastCkpt time.Time
	var err error
	dispatchRecs := func(rs []firewall.Record) error {
		if len(rs) > 0 {
			tr.do("dispatch.dispatch", root, func() { err = d.ProcessBatch(rs) })
		}
		return err
	}
	start := 0
	for i, r := range recs {
		if !dueAt(&lastAdv, idsAdvance, r.Time) {
			continue
		}
		if err := dispatchRecs(recs[start:i]); err != nil {
			return nil, nil, err
		}
		start = i
		st.ticks++
		tr.do("dispatch.mark", root, func() { err = d.Mark(r.Time) })
		if err != nil {
			return nil, nil, err
		}
		if !dueAt(&lastCkpt, time.Hour, r.Time) {
			continue
		}
		tr.do("dispatch.barrier", root, func() { err = d.Barrier() })
		if err != nil {
			return nil, nil, err
		}
		for i, e := range engines {
			var buf bytes.Buffer
			tr.do("checkpoint.snapshot", root, func() {
				if err = e.Snapshot(&buf, r.Time); err == nil {
					err = os.WriteFile(filepath.Join(ckptDir, fmt.Sprintf("shard%d.ckpt", i)), buf.Bytes(), 0o644)
				}
			})
			if err != nil {
				return nil, nil, err
			}
			st.snapshots++
			st.snapshotBytes += buf.Len()
		}
	}
	if err := dispatchRecs(recs[start:]); err != nil {
		return nil, nil, err
	}
	tr.do("dispatch.barrier", root, func() { err = d.Close() })
	if err != nil {
		return nil, nil, err
	}
	var alerts []ids.Alert
	for _, e := range engines {
		st.evicted += candidates(e)
		st.dropped += e.DroppedCandidates()
		tr.do("ids.flush", root, func() { alerts = append(alerts, e.Flush()...) })
	}
	for _, p := range peaks {
		st.candPeak += p
	}
	st.alerts = len(alerts)
	sortAlerts(alerts)
	return alerts, st, nil
}

// sortAlerts orders alerts as ids.Engine.Drain does: first activity,
// then address, then prefix length.
func sortAlerts(alerts []ids.Alert) {
	slices.SortFunc(alerts, func(a, b ids.Alert) int {
		if c := a.First.Compare(b.First); c != 0 {
			return c
		}
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c
		}
		return a.Prefix.Bits() - b.Prefix.Bits()
	})
}

// idsStats fills the ids, dispatch and checkpoint metrics.
func (m layerMetrics) idsStats(tr *tracer, st *idsRunStats, n int) error {
	_, tickDurs := spanStats(tr, "ids.tick")
	tickP50, err := percentile(tickDurs, 0.5)
	if err != nil {
		return fmt.Errorf("ids ticks: %w", err)
	}
	m["ids.process_ns_per_record"] = perRecord(tr, "ids.process", n)
	m["ids.tick_ns_p50"] = tickP50
	m["ids.ticks"] = float64(st.ticks)
	m["ids.candidates_peak"] = float64(st.candPeak)
	m["ids.alert_share"] = float64(st.alerts) / float64(max(st.evicted, 1))
	m["ids.dropped_candidates"] = float64(st.dropped)
	if st.shardRecs != nil {
		most, sum := 0, 0
		for _, c := range st.shardRecs {
			most, sum = max(most, c), sum+c
		}
		m["dispatch.shard_skew"] = float64(most) * float64(len(st.shardRecs)) / float64(max(sum, 1))
		total, _ := spanStats(tr, "dispatch.barrier")
		m["dispatch.barrier_wait_ns_total"] = float64(total.Nanoseconds())
	}
	if st.snapshots > 0 {
		_, snaps := spanStats(tr, "checkpoint.snapshot")
		p50, err := percentile(snaps, 0.5)
		if err != nil {
			return fmt.Errorf("checkpoint snapshots: %w", err)
		}
		m["checkpoint.snapshot_ms_p50"] = p50 / 1e6
		m["checkpoint.snapshot_bytes"] = float64(st.snapshotBytes) / float64(st.snapshots)
		m["checkpoint.snapshots"] = float64(st.snapshots)
	}
	return nil
}

// tracedDaemon replays the daemon in this process: the checkpoint
// restore, a TailSource following a copy of the log, and the daemon's
// cadence over one IDS engine (tick, then drain the fired alerts), with
// the same live appends on the same schedule. The root span covers the
// restore and the catch-up, the part of the run that is CPU-bound; the
// live phase is measured by tail pickup, append to emit. The serve
// metrics come from the real daemon measured in the same invocation.
func tracedDaemon(e *benchEnv, dir string, un *outcome, tr *tracer) (map[string]float64, string, error) {
	m := newLayerMetrics()
	p, err := loadPlan(dir)
	if err != nil {
		return nil, "", err
	}
	live, err := readRecords(filepath.Join(dir, "live.log"))
	if err != nil {
		return nil, "", err
	}
	liveBytes, err := os.ReadFile(filepath.Join(dir, "live.log"))
	if err != nil {
		return nil, "", err
	}
	times := make([]time.Time, len(live))
	for i, r := range live {
		times[i] = r.Time
	}
	chunks := liveChunks(times, p.LiveStart)
	work, err := e.scratchDir("traced-daemon-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(work)
	log := filepath.Join(work, "fw.log")
	if err := copySynced(log, filepath.Join(dir, "catchup.log")); err != nil {
		return nil, "", err
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt", "*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		return nil, "", fmt.Errorf("want one prepared checkpoint, have %v (%v)", ckpts, err)
	}
	var marks struct {
		Advance time.Time `json:"advance"`
	}
	if b, err := os.ReadFile(ckpts[0] + ".marks"); err != nil {
		return nil, "", err
	} else if err := json.Unmarshal(b, &marks); err != nil {
		return nil, "", err
	}

	root := tr.begin("run", 0)
	var res *pipeline.Resumed
	tr.do("checkpoint.restore", root, func() { res, err = pipeline.ResumeFile(ckpts[0], 1) })
	if err != nil {
		return nil, "", err
	}
	sink, ok := res.Sink.(*pipeline.IDSSink)
	if !ok {
		return nil, "", fmt.Errorf("checkpoint restored %T, not an IDS sink", res.Sink)
	}
	eng := sink.E
	lastAdv := marks.Advance

	chunkAt := make(map[int]int, len(chunks)) // live index of a chunk's first record → chunk
	for k, c := range chunks {
		chunkAt[c.lo] = k
	}
	liveFrom := p.Prefix + p.Backlog
	var (
		consumed  int
		caughtUp  = make(chan struct{})
		allIn     = make(chan struct{})
		sched     = make([]time.Time, len(chunks))
		schedMu   sync.Mutex
		pickups   []float64
		alerts    []ids.Alert
		st        = &idsRunStats{}
		fills     []float64
		processed = make([]firewall.Record, 0, liveFrom+len(live))
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tail := pipeline.NewTailSource(log, pipeline.TailConfig{Context: ctx})
	tailErr := make(chan error, 1)
	tailSpan := tr.begin("pipeline.tail", root)
	// Spans of the catch-up hang under root, those of the live phase
	// under their own root, outside the ladder.
	parent := root
	go func() {
		tailErr <- tail.EmitBatch(pipeline.DefaultBatchSize, func(recs []firewall.Record) error {
			now := time.Now()
			catchingUp := consumed < liveFrom
			if catchingUp {
				tr.end(tailSpan)
			}
			fills = append(fills, float64(len(recs))/pipeline.DefaultBatchSize)
			for i := range recs {
				if k, ok := chunkAt[consumed+i-liveFrom]; ok && consumed+i >= liveFrom {
					schedMu.Lock()
					pickups = append(pickups, float64(now.Sub(sched[k]).Microseconds())/1000)
					schedMu.Unlock()
				}
			}
			seg := 0
			for i, r := range recs {
				if !r.Time.After(res.Horizon) {
					seg = i + 1 // replayed prefix, already in the checkpoint
					continue
				}
				if dueAt(&lastAdv, idsAdvance, r.Time) {
					if seg < i {
						tr.do("ids.process", parent, func() { eng.ProcessBatch(recs[seg:i]) })
					}
					before := candidates(eng)
					st.candPeak = max(st.candPeak, before)
					tr.do("ids.tick", parent, func() { eng.Tick(r.Time) })
					st.evicted += before - candidates(eng)
					st.ticks++
					tr.do("ids.drain", parent, func() { alerts = append(alerts, eng.Drain()...) })
					seg = i
				}
				processed = append(processed, r)
			}
			if seg < len(recs) {
				tr.do("ids.process", parent, func() { eng.ProcessBatch(recs[seg:]) })
			}
			consumed += len(recs)
			if catchingUp {
				if consumed >= liveFrom {
					tr.end(root)
					parent = tr.begin("bench.live", 0)
					close(caughtUp)
				} else {
					tailSpan = tr.begin("pipeline.tail", root)
				}
			}
			if consumed == liveFrom+len(live) {
				close(allIn)
			}
			return nil
		})
	}()
	select {
	case <-caughtUp:
	case err := <-tailErr:
		return nil, "", fmt.Errorf("tail ended during catch-up: %v", err)
	case <-time.After(60 * time.Second):
		return nil, "", fmt.Errorf("traced catch-up timed out")
	}

	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	liveStart := time.Now().Add(100 * time.Millisecond)
	schedMu.Lock()
	for k, c := range chunks {
		sched[k] = liveStart.Add(c.offset)
	}
	schedMu.Unlock()
	for _, c := range chunks {
		time.Sleep(time.Until(liveStart.Add(c.offset)))
		if _, err := f.Write(liveBytes[c.lo*firewall.RecordWireSize : c.hi*firewall.RecordWireSize]); err != nil {
			return nil, "", err
		}
	}
	select {
	case <-allIn:
	case <-time.After(10 * time.Second):
		return nil, "", fmt.Errorf("traced tail did not deliver the live records")
	}
	cancel()
	if err := <-tailErr; err != nil {
		return nil, "", err
	}
	tr.end(parent)

	lines := make([]string, len(alerts))
	for i, a := range alerts {
		lines[i] = a.String()
	}
	st.alerts, st.dropped = len(alerts), eng.DroppedCandidates()
	if err := m.idsStats(tr, st, len(processed)); err != nil {
		return nil, "", err
	}
	restore, _ := spanStats(tr, "checkpoint.restore")
	m["checkpoint.restore_ms"] = float64(restore.Microseconds()) / 1000
	m["pipeline.tail_ns_per_record"] = perRecord(tr, "pipeline.tail", liveFrom)
	m["pipeline.batch_fill_mean"] = mean(fills)
	p50, err50 := percentile(pickups, 0.5)
	p95, err95 := percentile(pickups, 0.95)
	if err50 != nil || err95 != nil {
		return nil, "", fmt.Errorf("tail pickup undersampled: %v %v", err50, err95)
	}
	m["pipeline.tail_pickup_ms_p50"], m["pipeline.tail_pickup_ms_p95"] = p50, p95
	for _, k := range []string{"alert_latency_ms_p50", "alert_latency_ms_p95", "alert_samples", "generator_late_ms_p95", "api_get_ms_p50"} {
		m["serve."+k] = detail(un, k)
	}
	m["serve.sse_dropped"] = detail(un, "sse_seq_gaps")
	m.finish(tr, detail(un, "unscaled_setup_s")+detail(un, "drain_s"))

	backlog, err := os.ReadFile(filepath.Join(dir, "backlog.log"))
	if err != nil {
		return nil, "", err
	}
	recs := make([]firewall.Record, 0, len(backlog)/firewall.RecordWireSize)
	id := tr.begin("firewall.decode", 0)
	recs, err = firewall.DecodeChunk(backlog, recs)
	tr.end(id)
	if err != nil {
		return nil, "", err
	}
	m["firewall.decode_ns_per_record"] = perRecord(tr, "firewall.decode", len(recs))
	m.replayIndex(tr, processed, ids.DefaultConfig().Levels, idsAdvance)
	return m, alertDigest(lines), nil
}
