// Package pipeline is the composable streaming architecture that every
// record consumer in this repository plugs into: a Source produces a
// time-ordered stream of firewall records, zero or more stages
// (collect-policy filter, day sorter, 5-duplicate artifact filter,
// tees) transform or observe it, and a terminal sink — the
// multi-aggregation detector or the dynamic-aggregation IDS engine
// (one sink each, at any shard count), or any function over records
// (SinkFunc, Collector: a MAWI capture window, an analysis collector)
// — consumes it. Everything downstream of a Source implements the one
// RecordSink interface, so ingestion (binary firewall logs, pcap
// captures, the CDN and MAWI simulators) composes freely with
// processing and terminal consumers.
//
// Pipelines are assembled left to right with the fluent Builder — the
// order stages are named is the order records traverse them:
//
//	det, err := pipeline.From(pipeline.NewLogSource(f)).
//		Policy(firewall.DefaultCollectPolicy()).
//		Artifact().
//		Detect(ctx, core.DefaultConfig(), 8)
//
// There is one contract: sources emit batches (Source.EmitBatch) and
// every stage and sink consumes them (RecordSink.ConsumeBatch), so
// records flow batch-to-batch from the source to the terminal sink —
// filter stages compact each run in place. A record-at-a-time
// producer (the simulators' EmitDay callbacks) enters through one
// edge adapter, SourceFunc, which stages its records into pooled
// batches; a record-at-a-time consumer is a SinkFunc. Batch
// boundaries are not part of the stream: every stage emits the same
// records in the same order, and every cadence cuts at the same
// record, at any batch size.
// Stages pass batches downstream synchronously; parallelism lives in
// the detector and IDS sinks, which partition batches across worker
// shards.
// Flush propagates end-of-stream down the chain: buffered stages
// drain, then always flush downstream, so one Flush at the head
// reaches the terminal and every Tee branch exactly once — even when a
// drain fails — and the terminal finalizes its results and releases
// its resources (worker goroutines, buffered writers). Builder.RunInto
// is the one way to run a chain, and owns that Flush.
//
// # Batch ownership
//
// One rule governs every batch slice in the system, whichever hop it
// is on (source → stage, stage → stage, dispatcher → worker shard):
//
//   - A batch is valid only for the duration of the call that
//     delivers it (ConsumeBatch, EmitBatch's emit, dispatch.Worker).
//     The producer owns the backing array and WILL refill it: sources
//     reuse one pooled chunk buffer for every chunk including the
//     final short one, and the sharded sinks' dispatcher recycles its
//     per-shard buffers through the same arena (dispatch.GetBatch /
//     PutBatch) the moment the worker returns.
//   - Within the call, the consumer may mutate the slice in place —
//     filter stages compact survivors to the front; Tee therefore
//     hands copies to every branch but its last.
//   - Anything that retains records beyond the call must copy them
//     (the analysis collectors copy record values; the sharded
//     consumers partition into their own pooled buffers).
//
// TestBatchRetentionUnsafe codifies the rule from the consumer side:
// a sink that stores an emitted slice observes it change under later
// batches.
//
// Streaming sources obey the same rule from the producer side: Log and
// Pcap sources decode incrementally from their io.Reader into one
// pooled chunk buffer (dispatch.GetBatch) that every chunk — including
// the final short one — refills in place, so a whole capture or
// multi-day log flows through the chain holding only O(batch) decode
// state. Record values themselves are safe to copy out of a batch at
// any time (they contain no producer-owned pointers); only the slice
// is loaned. Every source caps its batches at the batchSize EmitBatch
// is given, and a non-positive batchSize means DefaultBatchSize.
//
// The concurrent sources keep the rule intact across goroutines:
//
//   - ParallelLogSource decodes each file chunk into its own pooled
//     batch on a worker goroutine, but ownership transfers with the
//     reassembly — the emitting goroutine (the EmitBatch caller's)
//     loans each batch downstream in file order and recycles it to the
//     arena only after emit returns, so consumers see the standard
//     single-threaded loan and no worker ever touches a batch that is
//     downstream. Unlike the serial sources it cycles through a window
//     of pooled buffers rather than refilling one, which changes
//     nothing for a contract-abiding consumer.
//   - MergeSource never forwards an input's batch at all: each input
//     source stays parked inside its own emit — holding its loan —
//     until the merger has drained the batch, and merged record values
//     are copied into the merger's own pooled output batches. The
//     batches a MergeSource emits are therefore fresh loans under the
//     standard rule, and downstream compaction cannot reach back into
//     any input source's buffer.
//
// # Streaming reorder and lateness
//
// WindowSort extends the ownership rule across buffering: it copies
// record values out of incoming batches into its own reorder buffer
// (never aliasing a producer's slice) and emits released prefixes of
// that buffer downstream under the standard loan — consumers may
// compact the emitted prefix in place; the retained tail is outside
// it. Its lateness contract is the streaming counterpart of DaySort's
// "days arrive in order" precondition: a record may trail the stream's
// high-water mark by at most the configured window. Records trailing
// further may already be unplaceable (their slot can have been
// released), so the stage fails fast with a diagnostic — identically
// at any batch size — instead of silently corrupting
// downstream time order. Callers size the window to their source's
// worst-case disorder and get full-sort-equivalent output (see the
// WindowSort doc) in exchange for window-bounded memory. When the
// disorder cannot be bounded in advance, a window longer than the
// stream turns the stage into a whole-input sort that releases
// everything at Flush (cmd/v6scan's -window 0 on a pcap) — memory is
// then the input, not the window. WindowSort is the only reorder stage
// in the tree; DaySort is the per-day sort the simulators' per-actor
// streams need.
//
// # Checkpoint consistency
//
// The durable-state layer (Checkpointer, Builder.CheckpointEvery,
// ResumeFile) extends the ownership and ordering rules to snapshots:
//
//   - Periodic snapshots are cut only at cadence fire points. The
//     cadence machinery splits every batch at the FIRST record at or
//     past the boundary and fires before that record is consumed, so a
//     snapshot with mark t captures exactly the records with Time < t
//     — the same cut at any batch size.
//   - The checkpoint cadence rides the eviction cadence (Advance/Tick;
//     a checkpoint cadence set alone is the eviction cadence too):
//     snapshots are cut only at eviction fire points, immediately
//     after the advance/tick runs. A checkpoint therefore always
//     reflects the eviction horizon the live run had applied and holds
//     no state it released, checkpointing never perturbs the (for
//     the IDS, semantic) eviction schedule, and a resumed run's
//     cadence marks — both restored to the snapshot mark — are exactly
//     in phase with the uninterrupted run's. The one cut off the cadence,
//     a stopping serving sink's final state (IDSHook), carries its
//     phase in a sidecar that ResumeFile restores instead.
//   - Sharded sinks snapshot through a dispatcher barrier: the barrier
//     drains every in-flight batch and establishes a happens-before
//     edge from each worker to the snapshotting goroutine, so reading
//     shard state during the snapshot involves no data race and no
//     batch loan outlives its call.
//   - A snapshot owns nothing of the live sink: all state is encoded
//     by value into the checkpoint stream, and a restored sink is
//     built from fresh allocations — restore never aliases the bytes
//     of the snapshot buffer or any prior sink's state.
//   - Restored state is canonical (key-sorted sections, global across
//     shards), so restoring at a different shard count re-partitions
//     deterministically and Snapshot∘Restore∘Snapshot is
//     byte-identity.
//
// # State index
//
// The stateful sinks' working sets — the detector's per-level session
// tables, the IDS engine's per-level candidate tables, and each
// session's destination/source address sets — live in internal/u128idx
// rather than built-in maps: an open-addressed index specialized for
// pointer-free U128 keys, and the keyed Table on it whose handles
// address paged sessions and candidates. Three rules keep that
// invisible at the pipeline layer:
//
//   - Ownership follows the sink. A table or index belongs to
//     exactly one shard's detector/engine, mutated only by that
//     shard's worker goroutine; the dispatcher barrier that makes
//     shard state readable for snapshots covers them like any other
//     shard state. Nothing in a batch ever holds an index reference,
//     so the batch-loan rule above is unaffected.
//   - Iteration order is NOT deterministic, exactly like map order.
//     Every output seam (snapshot sections, sharded merges, Scans and
//     Drain orderings) sorts canonically — by key, or by the
//     deterministic alert/scan total orders — before bytes leave the
//     sink, so index layout, shard count, and probe history never
//     reach an output. Every key sort at those seams is
//     netaddr6.SortByKey (u128idx.AppendKeysSorted for a bare index).
//   - Small sets stay inline. Per-session address sets start as a
//     sorted array (u128idx.SmallSetSpill entries) and spill to an
//     index only beyond it; both representations serialize as the same
//     sorted logical set, so the cutoff is a pure time/space knob —
//     re-tune it freely without touching any format or golden output.
//
// Batches also feed the index efficiently: the detector's and IDS's
// ProcessBatch group adjacent same-source records so a burst costs at
// most one probe per aggregation level (the IDS reaches the coarser
// candidates a source has reached before through a hint, unprobed),
// and the dispatcher preserves that
// adjacency when partitioning (same-source runs stay contiguous within
// a shard's batch).
//
// # Serving
//
// TailSource is the follow-mode counterpart of LogSource: it polls a
// growing binary log, emits every whole record as soon as it is
// durable, holds a torn trailing write until its remaining bytes
// land, and ends — cleanly, after a final drain of everything durable
// — when its TailConfig.Context is cancelled. It is the ingestion
// edge of the serve daemon (internal/serve, cmd/v6scand), but plugs
// into any pipeline like a finite source.
//
// Ownership and rotation rules:
//
//   - A TailSource is single-use and single-goroutine like every
//     other source; only the pipeline's run goroutine may call
//     EmitBatch, and Stats is safe only from code inside that
//     pipeline or after the run ends. Emitted batches follow the
//     standard pooled-batch loan.
//   - The tailed file must grow by appends in non-decreasing record
//     time; the tail never re-reads bytes behind its offset.
//   - Rename-and-recreate rotation is detected by file identity: once
//     the path points at a new file, the old handle is drained one
//     last time and reading restarts at the new file's start. The
//     writer must stop appending to the old file BEFORE creating the
//     new one — records appended to a renamed file after the tail's
//     final drain of it are lost. In-place truncation (same inode,
//     size shrinks) restarts the offset at zero.
//
// The serving layer on top (internal/serve) adds the read-side
// contract: detection state is owned by the pipeline goroutine alone;
// HTTP handlers read immutable published snapshots. Its SSE alert
// stream applies backpressure by shedding, never by blocking — one
// bounded in-memory ring serves pagination, reconnect backlog and
// every live client, each reading from its own cursor, and a client
// that falls further behind than the ring holds loses (and counts)
// only the alerts the ring evicted.
//
// # Wire layer
//
// PublishSink and SubscribeSource split one logical pipeline across
// processes: N vantage-point collectors each terminate their local
// pipeline in a PublishSink (Builder.PublishInto), and one aggregator
// consumes every published topic with FromBus. Records travel as
// events.Envelope messages (a CRC-guarded, versioned frame of
// record-wire bodies) over an internal/bus broker — in-memory here,
// but the endpoints assume only the broker contract: per-topic FIFO
// delivery, bounded subscriber buffers, blocking backpressure.
//
// The topic scheme is the sharding invariant made routable. A
// publisher partitions its stream across its topics by the source
// address aggregated to the COARSEST configured detection level
// (dispatch.Partition at dispatch.CoarsestLevel), so every record of
// one coarsest-level prefix — and therefore all detector/IDS state
// that prefix can ever touch, at every level — flows through exactly
// one topic. Cross-topic order is then immaterial to detection output,
// which is what makes the distributed run byte-identical to the
// in-process one (TestInvariance's bus/shards=1, 2 and 8 rows and the
// -publish goldens pin this).
//
// Ordering and delivery guarantees, endpoint by endpoint:
//
//   - Within a topic: envelopes carry consecutive sequence numbers
//     from 0; SubscribeSource verifies the sequence is gapless
//     (ErrEnvelopeGap otherwise) and records within and across a
//     topic's envelopes arrive in publish order.
//   - Across topics: FromBus merges the per-topic streams in
//     timestamp order (MergeSource), ties breaking to the
//     earlier-listed topic. List lower-indexed publishers' topics
//     first and records tying on a chunk-boundary timestamp reproduce
//     concatenation order.
//   - End of stream: Flush (owned by RunInto) publishes each topic's
//     staged remainder, then exactly one EOS envelope per topic, all
//     idempotently; a subscriber ends cleanly at EOS.
//   - Batch ownership: both endpoints obey the pooled-batch rule —
//     the publisher copies records into per-topic staging buffers
//     during ConsumeBatch (and the bus copies the encoded envelope),
//     the subscriber decodes into its own pooled batch and loans it
//     downstream per the standard rule.
//
// Liveness is the one place the wire layer is weaker than an
// in-process chain. A merging subscriber refuses to advance past a
// silent topic (that is what makes the merge correct), while each
// subscription buffers at most its depth: a publisher routing a long
// run to one topic while another stays silent can fill the first
// topic's buffer and block. PublishSink bounds the skew — every
// non-empty stage is published at each ConsumeBatch, so a topic lags
// the stream by at most one batch — and bus.DefaultDepth (64
// envelopes) absorbs that comfortably for any publisher whose batches
// interleave topics. A deployment with pathologically skewed routing
// (one topic silent for more than depth× the batch size while another
// streams) must raise the subscription depth, add publishers, or
// reduce per-publisher topics.
package pipeline

import (
	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
)

// RecordSink consumes a time-ordered record stream in batches. Every
// stage and terminal consumer implements it.
type RecordSink interface {
	// ConsumeBatch ingests a run of records under the package doc's
	// batch-ownership rule: valid only during the call, compactable in
	// place, copy on retain.
	ConsumeBatch(recs []firewall.Record) error
	// Flush signals end-of-stream and is the one way to end a sink.
	// A stage drains what it buffered, then flushes downstream even
	// if the drain failed, and returns the first error. A terminal
	// finalizes its results once (repeat calls are no-ops) and
	// releases what it holds (worker goroutines, buffered writers), so
	// its typed Result accessor is valid afterwards. A sink is not
	// reusable after Flush.
	Flush() error
}

// Source produces records in non-decreasing time order.
type Source interface {
	// EmitBatch pushes runs of 1 to batchSize records into emit (a
	// non-positive batchSize means DefaultBatchSize), under the
	// package doc's batch-ownership rule: the source owns (and
	// refills) the backing array, consumers may compact in place, and
	// sinks that retain records must copy. Emit's error aborts
	// production and is returned unwrapped.
	EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error
}

// DefaultBatchSize is the chunk size RunInto uses — large enough to
// amortize dispatch overhead, small enough to keep per-chunk buffers
// cache-friendly.
const DefaultBatchSize = 4096

// batchLimit resolves an EmitBatch batchSize: non-positive means
// DefaultBatchSize.
func batchLimit(batchSize int) int {
	if batchSize <= 0 {
		return DefaultBatchSize
	}
	return batchSize
}

// SourceFunc adapts a record-at-a-time producer — the simulators'
// EmitDay callbacks — to Source: the function pushes records one by
// one into emit, and EmitBatch stages them into a pooled batch that
// flows downstream every batchSize records and once more at the end.
// It is the one record-shaped edge of the pipeline.
type SourceFunc func(emit func(r firewall.Record) error) error

// EmitBatch implements Source.
func (f SourceFunc) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	batchSize = batchLimit(batchSize)
	buf := dispatch.GetBatch(batchSize)
	defer dispatch.PutBatch(buf)
	err := f(func(r firewall.Record) error {
		*buf = append(*buf, r)
		if len(*buf) < batchSize {
			return nil
		}
		err := emit(*buf)
		*buf = (*buf)[:0]
		return err
	})
	if err != nil || len(*buf) == 0 {
		return err
	}
	return emit(*buf)
}
