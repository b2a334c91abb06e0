// v6scan detects large-scale IPv6 scans in a firewall log (the binary
// record format of cmd/telescope-sim) or a classic pcap capture, using
// the paper's scan definition with configurable threshold, timeout and
// aggregation levels. Input streams through the standard pipeline —
// optional 5-duplicate artifact pre-filter into the scan detector,
// sharded across worker goroutines with -shards.
//
// Pcap captures decode incrementally into one reorder stage. With
// -window it holds one window of records instead of the whole capture;
// the default, -window 0, buffers the whole capture there and sorts it
// at end of input, which tolerates any disorder. -advance-every
// forwards a stream-time eviction horizon to every detector shard so
// session state for idle sources is released continuously instead of
// accumulating until the end of input. Output is byte-identical at any
// window and shard count, as long as capture disorder stays within the
// window (a record trailing the stream by more than the window aborts
// the run — rerun with a larger window or -window 0).
//
// With -ids the offline detector is replaced by the inline
// dynamic-aggregation IDS engine (sketched destination sets, bounded
// memory): output is the blocklist-recommendation alert list instead
// of per-level scan tables. -shards applies to the IDS path too,
// partitioning candidate state by coarsest-level source prefix across
// worker shards; alerts are byte-identical at any shard count (unless
// the engine's MaxCandidates bound kicks in, which each shard applies
// to its own tables). -advance-every overrides the engine's default
// one-minute Tick cadence.
//
// Binary-log ingest is parallel: each log decodes in record-aligned
// chunks across -decode-workers goroutines (default one per CPU), and
// several log files given as positional arguments — day-logs,
// typically — k-way merge into a single time-ordered stream, so a
// month of logs is one run. Output is byte-identical to a serial
// single-file run at any worker count. Stdin (-) and pcap inputs stay
// single-input and serial-decode.
//
// Long runs survive interruption with -checkpoint-dir: the terminal's
// state is snapshotted every -checkpoint-every of stream time, at cuts
// aligned with the eviction cadence, into versioned checksummed files.
// Rerunning with -resume restores the latest snapshot (re-partitioned
// to the current -shards, which may differ from the interrupted run's)
// and replays the same input with the already-processed prefix
// skipped; output is byte-identical to the uninterrupted run. The
// detection parameters (-min-dsts, -timeout, -agg) travel inside the
// snapshot, so the resumed run uses the interrupted run's.
//
//	v6scan -i telescope.log                  # offline detector
//	v6scan -i telescope.log -shards 8        # sharded detector
//	v6scan -i capture.pcap -window 5s        # streaming pcap reorder
//	v6scan -i telescope.log -advance-every 10m -shards 8
//	v6scan -i telescope.log -ids -shards 8   # sharded inline IDS
//	v6scan -shards 8 day1.log day2.log       # merged multi-day run
//	v6scan -decode-workers 4 telescope.log   # bounded decode parallelism
//	v6scan -checkpoint-dir ck day*.log       # snapshot hourly
//	v6scan -checkpoint-dir ck -resume day*.log  # pick up after a crash
//	v6scan -cpuprofile cpu.prof telescope.log   # profile the run
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"v6scan"
)

// errUsage marks usage errors whose diagnostics have already been
// written to stderr (bad flags, missing input), so main neither
// double-prints nor stays silent. Usage errors exit 2; runtime
// failures exit 1 — the pre-refactor flag.ExitOnError / log.Fatal
// contract.
var errUsage = errors.New("usage error")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp): // -h: usage already printed, success
	case errors.Is(err, errUsage): // diagnostic already printed
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "v6scan:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags in, report on
// stdout, diagnostics on stderr (the golden end-to-end tests drive it
// directly and pin stdout byte for byte).
func run(args []string, stdout, stderr io.Writer) (runErr error) {
	fs := flag.NewFlagSet("v6scan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input    = fs.String("i", "", "input file (.log binary records or .pcap); - for stdin log; additional log files may follow the flags as positional arguments and are merged in time order")
		workers  = fs.Int("decode-workers", 0, "parallel decode workers for binary log files (0 = one per CPU; stdin and pcap decode serially)")
		minDsts  = fs.Int("min-dsts", 100, "minimum distinct destinations per scan")
		timeout  = fs.Duration("timeout", time.Hour, "maximum packet inter-arrival time")
		levels   = fs.String("agg", "128,64,48", "comma-separated aggregation prefix lengths")
		topN     = fs.Int("top", 20, "print at most N scans per level (0 = all)")
		filter   = fs.Bool("filter", false, "apply the 5-duplicate artifact pre-filter first")
		shards   = fs.Int("shards", 1, "detector/IDS worker shards (at 1 the detector runs on one worker, the IDS inline; output is identical)")
		useIDS   = fs.Bool("ids", false, "run the inline dynamic-aggregation IDS instead of the offline detector")
		window   = fs.Duration("window", 0, "repair at most this much timestamp disorder in flight through a reorder buffer bounded to one window of records; for pcap, 0 buffers the whole capture in the reorder stage and sorts it at end of input (tolerating any disorder), for logs 0 streams as-is (logs are written in order)")
		advEvery = fs.Duration("advance-every", 0, "stream-time eviction cadence: periodically close idle detector sessions / tick the IDS, bounding memory (0 = only at end of input)")
		ckptDir  = fs.String("checkpoint-dir", "", "write versioned snapshots of detector/IDS state into this directory on the -checkpoint-every cadence; with -resume, also where the snapshot to restore is found")
		ckptEv   = fs.Duration("checkpoint-every", time.Hour, "stream-time cadence between checkpoints (needs -checkpoint-dir)")
		resume   = fs.Bool("resume", false, "restore the latest checkpoint in -checkpoint-dir and skip the already-processed input prefix")
		publish  = fs.Int("publish", 0, "distributed demonstration: split the input log across N publisher pipelines feeding one aggregator over an in-process event bus (output is identical to the direct run; needs a single binary log input)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the FlagSet already printed the diagnostic
	}
	inputs := fs.Args()
	if *input != "" {
		inputs = append([]string{*input}, inputs...)
	}
	if len(inputs) == 0 {
		fmt.Fprintln(stderr, "v6scan: missing input (-i file, or log files as arguments)")
		fs.Usage()
		return errUsage
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer func() {
			if perr := stop(); runErr == nil {
				runErr = perr
			}
		}()
	}

	cfg := v6scan.DefaultDetectorConfig()
	cfg.MinDsts = *minDsts
	cfg.Timeout = *timeout
	cfg.Levels = nil
	for _, part := range strings.Split(*levels, ",") {
		var bits int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &bits); err != nil {
			return fmt.Errorf("bad -agg element %q", part)
		}
		lvl := v6scan.AggLevel(bits)
		if !lvl.Valid() {
			return fmt.Errorf("invalid aggregation level %d", bits)
		}
		cfg.Levels = append(cfg.Levels, lvl)
	}

	if *ckptDir != "" && *ckptEv <= 0 {
		return fmt.Errorf("-checkpoint-dir needs a positive -checkpoint-every")
	}
	var resumed *v6scan.ResumedSink
	if *resume {
		if *ckptDir == "" {
			return fmt.Errorf("-resume needs -checkpoint-dir")
		}
		if *publish > 0 {
			// The partition level must match the detection levels, which
			// on resume travel inside the snapshot; keep the combination
			// out of scope rather than partially honoring the flags.
			return fmt.Errorf("-publish cannot be combined with -resume")
		}
		// A crashed earlier run may have stranded a half-written temp in
		// the checkpoint dir; clean those out before picking a snapshot.
		if _, err := v6scan.SweepCheckpointTemps(*ckptDir); err != nil {
			return err
		}
		path, err := v6scan.LatestCheckpoint(*ckptDir)
		if err != nil {
			return err
		}
		if path == "" {
			fmt.Fprintln(stderr, "v6scan: no checkpoint to resume from; starting fresh")
		} else if resumed, err = v6scan.ResumeCheckpoint(path, *shards); err != nil {
			return fmt.Errorf("resuming %s: %w", path, err)
		} else {
			// A restored sink runs workers. RunInto closes the sink it
			// runs; this closes it on every return that does not run it
			// (Close is idempotent).
			defer resumed.Sink.(v6scan.TerminalSink).Close()
		}
	}

	var (
		b             *v6scan.Builder
		reportSkipped func()
		closer        io.Closer
		waitPubs      func() error
		err           error
	)
	if *publish > 0 {
		b, waitPubs, closer, err = openPublishSplit(inputs, *publish, *window,
			v6scan.CoarsestLevel(cfg.Levels))
	} else {
		b, reportSkipped, closer, err = openSource(inputs, *window, *workers, stderr)
	}
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}
	if *advEvery > 0 {
		b.AdvanceEvery(*advEvery)
	}
	if *ckptDir != "" {
		b.CheckpointEvery(*ckptEv, *ckptDir)
	}
	if *filter {
		b.Artifact()
	}
	// On resume the whole input replays — stateful stages (the artifact
	// filter) rebuild their state from the full stream — and only the
	// terminal's view is cut, skipping the prefix the snapshot already
	// covers. The skip precedes the counter so "processed" reports what
	// detection actually consumed this run.
	if resumed != nil {
		b.ResumeFrom(resumed.Horizon)
	}
	// The counter sits past the filter so "processed" reports what
	// detection actually consumed. The counter stage is created at
	// build time (inside the terminal helpers), so the helpers take
	// the out-pointer's address.
	var counted *v6scan.PipelineCounter
	b.Counter(&counted)

	if *useIDS {
		err = runIDS(b, stdout, cfg, *shards, *advEvery, *topN, &counted, resumed)
	} else {
		err = runDetect(b, stdout, cfg, *shards, *topN, &counted, resumed)
	}
	if waitPubs != nil {
		if perr := waitPubs(); err == nil {
			err = perr
		}
	}
	if reportSkipped != nil {
		reportSkipped()
	}
	return err
}

// startCPUProfile starts profiling the process's CPU into path; stop
// ends the profile and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// publishTopics is the per-publisher topic fan-out of -publish: each
// publisher partitions its stream across this many prefix-keyed topics
// (the aggregator merges publishers × topics of them).
const publishTopics = 4

// openPublishSplit is the -publish input path: the single log file is
// split into n contiguous record-aligned chunks, each chunk replayed
// by its own publisher pipeline onto an in-process event bus, and the
// returned builder is the aggregator consuming all topics merged in
// time order — the collectors→aggregator deployment in one process.
// The subscriber's subscriptions attach before any publisher starts,
// so no envelope can be lost. The returned wait func joins the
// publishers and surfaces the first real publisher error (cancelled
// publishes after a subscriber failure are expected teardown, not
// errors).
func openPublishSplit(inputs []string, n int, window time.Duration, level v6scan.AggLevel) (*v6scan.Builder, func() error, io.Closer, error) {
	if len(inputs) != 1 || inputs[0] == "-" || strings.HasSuffix(inputs[0], ".pcap") {
		return nil, nil, nil, fmt.Errorf("-publish needs exactly one binary log file input")
	}
	f, err := os.Open(inputs[0])
	if err != nil {
		return nil, nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	chunks := v6scan.PlanLogChunks(fi.Size(), n)

	// Topic order is the merge tie-break order: publisher-major, so
	// records tying on the chunk-boundary timestamp reproduce the
	// original file order.
	bus := v6scan.NewBus()
	topics := make([][]string, len(chunks))
	var all []string
	for i := range chunks {
		topics[i] = v6scan.RecordTopics(fmt.Sprintf("pub%d", i), publishTopics)
		all = append(all, topics[i]...)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := v6scan.FromBusContext(ctx, bus, all...) // subscribes now
	if window > 0 {
		b.WindowSort(window)
	}

	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, c v6scan.LogChunk) {
			defer wg.Done()
			src := v6scan.NewLogSource(io.NewSectionReader(f, c.Offset, c.Length))
			errs[i] = v6scan.From(src).PublishInto(ctx, bus, level, topics[i]...)
		}(i, c)
	}
	wait := func() error {
		// The aggregator is done (or failed): release any publisher still
		// blocked on backpressure, then join them all.
		cancel()
		wg.Wait()
		for _, e := range errs {
			if e != nil && !errors.Is(e, context.Canceled) {
				return fmt.Errorf("publisher: %w", e)
			}
		}
		return nil
	}
	return b, wait, f, nil
}

// runDetect terminates the prepared builder in the offline detector
// across -shards workers — restored from the checkpoint when resuming,
// which also carries the detection parameters — and prints the
// per-level scan tables.
func runDetect(b *v6scan.Builder, stdout io.Writer, cfg v6scan.DetectorConfig, shards, topN int, counted **v6scan.PipelineCounter, resumed *v6scan.ResumedSink) error {
	var sink *v6scan.ShardedSink
	if resumed != nil {
		s, ok := resumed.Sink.(*v6scan.ShardedSink)
		if !ok {
			return errors.New("checkpoint holds IDS state; rerun with -ids")
		}
		sink = s
	} else {
		sink = v6scan.NewShardedSink(v6scan.NewShardedDetector(cfg, shards))
	}
	if err := b.RunInto(context.Background(), sink); err != nil {
		return err
	}
	det := sink.Result()
	levels := cfg.Levels
	if resumed != nil {
		levels = det.Config().Levels
	}

	fmt.Fprintf(stdout, "processed %d records\n", (*counted).Count())
	for _, lvl := range levels {
		scans := det.Scans(lvl)
		fmt.Fprintf(stdout, "\n=== %s: %d scans ===\n", lvl, len(scans))
		sort.Slice(scans, func(i, j int) bool { return scans[i].Packets > scans[j].Packets })
		for i, s := range scans {
			if topN > 0 && i >= topN {
				fmt.Fprintf(stdout, "  … %d more\n", len(scans)-i)
				break
			}
			fmt.Fprintf(stdout, "  %-30s %8d pkts %6d dsts %5d ports %3d srcs %v [%s]\n",
				s.Source, s.Packets, s.Dsts, s.NumPorts(), s.SrcAddrs,
				s.Duration().Round(time.Second), s.Class())
		}
	}
	return nil
}

// runIDS terminates the prepared builder in the inline
// dynamic-aggregation engine (across -shards workers above one) and
// prints the merged alert list — the blocklist recommendations the
// Discussion section calls for.
func runIDS(b *v6scan.Builder, stdout io.Writer, det v6scan.DetectorConfig, shards int, advEvery time.Duration, topN int, counted **v6scan.PipelineCounter, resumed *v6scan.ResumedSink) error {
	cfg := v6scan.DefaultIDSConfig()
	cfg.MinDsts = det.MinDsts
	cfg.Timeout = det.Timeout
	cfg.Levels = det.Levels

	// Tick once per minute of stream time by default — the
	// inline-deployment cadence, overridable with -advance-every: idle
	// candidates are evicted (and their alerts emitted) mid-stream
	// instead of all pooling until Flush. RunInto applies the builder's
	// cadence to the sink; it is configuration, not checkpointed state,
	// so a resumed sink gets it too. The drop introspection needs the
	// sink in hand, so the builder terminates through RunInto rather
	// than the IDS helper.
	tickEvery := time.Minute
	if advEvery > 0 {
		tickEvery = advEvery
	}
	b.AdvanceEvery(tickEvery)
	var sink *v6scan.IDSSink
	if resumed == nil {
		sink = v6scan.NewIDSSink(v6scan.NewShardedIDS(cfg, shards))
	} else {
		s, ok := resumed.Sink.(*v6scan.IDSSink)
		if !ok {
			return errors.New("checkpoint holds offline-detector state; rerun without -ids")
		}
		sink = s
	}
	if err := b.RunInto(context.Background(), sink); err != nil {
		return err
	}

	alerts := sink.Result()
	fmt.Fprintf(stdout, "processed %d records: %d IDS alerts\n", (*counted).Count(), len(alerts))
	if n := sink.E.DroppedCandidates(); n > 0 {
		fmt.Fprintf(stdout, "  warning: %d candidates dropped by the MaxCandidates bound — alerts are incomplete\n", n)
	}
	for i, a := range alerts {
		if topN > 0 && i >= topN {
			fmt.Fprintf(stdout, "  … %d more\n", len(alerts)-i)
			break
		}
		fmt.Fprintf(stdout, "  %s\n", a)
	}
	return nil
}

// unbounded is the reorder window -window 0 gives a pcap: longer than
// any capture, so no record is ever late and the reorder stage
// releases the whole capture, sorted, at end of input.
const unbounded = time.Duration(math.MaxInt64)

// openSource starts a pipeline builder for the input paths. Regular
// binary log files — one or several — ingest through the parallel
// multi-file path (FromFiles): each file decodes in record-aligned
// chunks across the worker budget, several files merge in time order,
// and the files are opened and closed by the source itself; window > 0
// adds the bounded-lateness reorder buffer for logs with interleave
// (e.g. multi-writer merges). A stdin log (-) decodes serially — the
// chunked decoder needs random access. Pcap captures always stream
// through the reorder buffer: window > 0 holds one window of records,
// and output is identical to a full sort as long as capture disorder
// stays within the window (records later than that abort the run;
// rerun with a larger -window); window ≤ 0 holds the whole capture
// (unbounded), tolerating any disorder. The returned report func, when
// non-nil, reports undecodable-packet counts to stderr after the run
// (streaming decode only knows them at the end); the returned closer,
// when non-nil, is the opened input file the caller must close after
// the run (run() is a reusable seam — the golden tests call it
// repeatedly in one process).
func openSource(inputs []string, window time.Duration, workers int, stderr io.Writer) (b *v6scan.Builder, report func(), closer io.Closer, err error) {
	if len(inputs) > 1 {
		for _, p := range inputs {
			if p == "-" || strings.HasSuffix(p, ".pcap") {
				return nil, nil, nil, fmt.Errorf("multi-file ingest merges binary log files only; %q cannot join a merge", p)
			}
		}
	}
	path := inputs[0]
	switch {
	case path == "-" || strings.HasSuffix(path, ".pcap"):
		// Single stream input: serial decode paths below.
	default:
		b := v6scan.FromFiles(inputs...).DecodeWorkers(workers)
		if window > 0 {
			// Logs are written in time order, but multi-writer merges
			// can interleave; the same bounded reorder repair applies.
			b.WindowSort(window)
		}
		return b, nil, nil, nil
	}
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, ferr := os.Open(path)
		if ferr != nil {
			return nil, nil, nil, ferr
		}
		closer = f
		r = bufio.NewReaderSize(f, 1<<20)
	}
	if !strings.HasSuffix(path, ".pcap") {
		b := v6scan.From(v6scan.NewLogSource(r))
		if window > 0 {
			b.WindowSort(window)
		}
		return b, nil, closer, nil
	}
	if window <= 0 {
		window = unbounded
	}
	src := v6scan.NewPcapSource(r)
	report = func() {
		if n := src.Skipped(); n > 0 {
			fmt.Fprintf(stderr, "skipped %d undecodable packets\n", n)
		}
	}
	return v6scan.From(src).WindowSort(window), report, closer, nil
}
