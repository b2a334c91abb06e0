// Package dispatch provides the shared worker/dispatch scaffolding
// for sharded record consumers: core.ShardedDetector and, above one
// shard, ids.Engine.
//
// # Sharding invariant
//
// Records are partitioned by their source address aggregated to the
// *coarsest* configured level (Config.Level, normally
// CoarsestLevel(cfg.Levels)). Every finer aggregate of a source nests
// inside its coarsest prefix, so per-source state at every aggregation
// level lives in exactly one shard, and a deterministic merge of the
// per-shard results is byte-identical to a single serial consumer's
// output at any shard count. Consumers own their per-shard state and
// the merge; the dispatcher owns partitioning, the worker goroutines,
// and their shutdown.
//
// # Pooled ownership model
//
// Dispatch is allocation-flat in steady state: per-shard batch buffers
// come from a process-wide sync.Pool arena (GetBatch/PutBatch) shared
// with the pipeline sources. The dispatching goroutine partitions each
// incoming run into pooled buffers — copying each record exactly once —
// and hands each buffer to its shard's channel; the worker goroutine
// recycles the buffer into the pool after the Worker callback returns.
// The contract mirrors pipeline batch ownership: a Worker may read
// (and a consumer may compact) the slice only for the duration of the
// call, and anything that retains records beyond it must copy —
// after the call returns, the buffer re-enters the pool and WILL be
// overwritten by a later batch.
//
// # Error path
//
// The error path is parameterized by the Worker: detector workers can
// fail (time-order violations), IDS workers cannot. The first Worker
// error is recorded and surfaces at the next ProcessBatch/Mark/Barrier
// call and again at Close; after a failure, workers keep draining (and
// recycling) queued batches without processing them so Close never
// leaks a goroutine. Consumers whose workers never fail simply ignore
// the returned errors.
package dispatch

import (
	"errors"
	"math/bits"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/netaddr6"
)

// CoarsestLevel returns the coarsest (smallest prefix length) of the
// given aggregation levels — the partition level for sharded consumers:
// every finer aggregate of a source nests inside its coarsest prefix,
// so state at every level lands in exactly one shard.
func CoarsestLevel(levels []netaddr6.AggLevel) netaddr6.AggLevel {
	coarsest := levels[0]
	for _, l := range levels {
		if l < coarsest {
			coarsest = l
		}
	}
	return coarsest
}

// Partition routes a source address to one of n shards by its prefix
// at the partition level. Every sharded consumer uses it (via
// Dispatcher or directly), so a record always lands on the same shard
// index regardless of which consumer processes it.
func Partition(src netip.Addr, level netaddr6.AggLevel, n int) int {
	if n <= 1 {
		return 0
	}
	key := netaddr6.ToU128(src).Mask(int(level))
	// splitmix-style finalizer over the masked 128-bit key.
	x := key.Hi ^ bits.RotateLeft64(key.Lo, 31)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(n))
}

// batchPool is the process-wide batch arena. Entries are pointers so
// Get/Put never allocate for the interface conversion; capacities grow
// to the largest batch dispatched and then stabilize.
var batchPool = sync.Pool{New: func() any { return new([]firewall.Record) }}

// poolGets and poolMisses count GetBatch calls and the subset that
// had to allocate (pool empty or buffer under capacity). Their ratio
// is the pool hit rate the metrics registry exports; atomic because
// every pipeline goroutine touches the pool.
var poolGets, poolMisses atomic.Uint64

// PoolStats reports GetBatch traffic: total gets and the misses that
// allocated a fresh or larger buffer. Safe from any goroutine.
func PoolStats() (gets, misses uint64) {
	return poolGets.Load(), poolMisses.Load()
}

// GetBatch returns an empty pooled record buffer with at least the
// given capacity. Pair with PutBatch when the buffer is no longer
// referenced anywhere (see the package doc's ownership model).
func GetBatch(capacity int) *[]firewall.Record {
	poolGets.Add(1)
	b := batchPool.Get().(*[]firewall.Record)
	if cap(*b) < capacity {
		poolMisses.Add(1)
		*b = make([]firewall.Record, 0, capacity)
	} else {
		*b = (*b)[:0]
	}
	return b
}

// PutBatch recycles a buffer obtained from GetBatch. The caller must
// not touch the slice afterwards; a later GetBatch anywhere in the
// process may overwrite it.
func PutBatch(b *[]firewall.Record) {
	if b == nil {
		return
	}
	*b = (*b)[:0]
	batchPool.Put(b)
}

// Worker consumes one unit of shard work: an eviction/tick horizon
// (when mark is non-zero, to apply before the records) and a run of
// records partitioned to this shard. The recs slice is only valid for
// the duration of the call — the dispatcher recycles it afterwards.
// Returning an error marks the dispatcher failed; see the package doc.
type Worker func(shard int, recs []firewall.Record, mark time.Time) error

// Config parameterizes a Dispatcher.
type Config struct {
	// Shards is the worker count; values below 1 are treated as 1.
	Shards int
	// Level is the partition aggregation level (normally
	// CoarsestLevel of the consumer's configured levels).
	Level netaddr6.AggLevel
	// Depth is the per-shard queue depth in batches (default 4).
	Depth int
}

// defaultDepth is the default per-shard channel depth.
const defaultDepth = 4

// msg is one unit of work for a shard: a run of records and/or a
// horizon, or a barrier request (done non-nil). buf is the pool token
// for recs; the worker recycles it after processing.
type msg struct {
	recs []firewall.Record
	buf  *[]firewall.Record
	mark time.Time
	done chan<- struct{}
}

// ErrClosed is returned by dispatcher operations after Close.
var ErrClosed = errors.New("dispatch: Dispatcher used after Close")

// Dispatcher fans a time-ordered record stream out across N worker
// shards. All methods must be called from a single dispatching
// goroutine; the Worker callback runs on the shard goroutines.
type Dispatcher struct {
	work  Worker
	level netaddr6.AggLevel
	n     int
	chans []chan msg
	wg    sync.WaitGroup
	// err holds the first worker error; workers race to set it and the
	// dispatching goroutine polls it so failures surface at the next
	// call rather than only at Close.
	err atomic.Pointer[error]

	// parts is the reused partition scratch (one slot per shard, nil
	// between dispatches).
	parts   []*[]firewall.Record
	barrier chan struct{}
	closed  bool
}

// New returns a dispatcher running w across cfg.Shards worker
// goroutines. Callers must Close it to stop the workers.
func New(cfg Config, w Worker) *Dispatcher {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = defaultDepth
	}
	d := &Dispatcher{
		work:    w,
		level:   cfg.Level,
		n:       n,
		chans:   make([]chan msg, n),
		parts:   make([]*[]firewall.Record, n),
		barrier: make(chan struct{}, n),
	}
	for i := range d.chans {
		d.chans[i] = make(chan msg, depth)
		d.wg.Add(1)
		go d.worker(i)
	}
	return d
}

// NumShards returns the worker count.
func (d *Dispatcher) NumShards() int { return d.n }

// QueueDepth reports the number of work units currently buffered in
// the shard channels, summed over shards — the backlog the workers
// have not yet picked up. Unlike every other method it is safe from
// any goroutine (len on a channel is a synchronized runtime read), so
// a metrics scrape can watch backpressure while the dispatching
// goroutine runs. The value is instantaneously stale by nature.
func (d *Dispatcher) QueueDepth() int {
	depth := 0
	for _, ch := range d.chans {
		depth += len(ch)
	}
	return depth
}

// Err returns the first worker error, if any.
func (d *Dispatcher) Err() error {
	if p := d.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (d *Dispatcher) worker(i int) {
	defer d.wg.Done()
	for m := range d.chans[i] {
		if m.done != nil {
			m.done <- struct{}{}
			continue
		}
		// After a failure, drain without processing so Close joins.
		if d.err.Load() == nil {
			if err := d.work(i, m.recs, m.mark); err != nil {
				d.err.CompareAndSwap(nil, &err)
			}
		}
		PutBatch(m.buf)
	}
}

// ProcessBatch partitions a run of records across the shards and
// dispatches it. The slice is not retained — records are copied into
// pooled per-shard buffers — so callers may reuse the backing array.
func (d *Dispatcher) ProcessBatch(recs []firewall.Record) error {
	return d.dispatch(recs, time.Time{})
}

// Mark broadcasts an eviction/tick horizon to every shard. Workers
// receive it as a non-zero mark, ordered with the record stream, so
// eviction sees every record dispatched before it.
func (d *Dispatcher) Mark(t time.Time) error {
	return d.dispatch(nil, t)
}

func (d *Dispatcher) dispatch(recs []firewall.Record, mark time.Time) error {
	if d.closed {
		return ErrClosed
	}
	if err := d.Err(); err != nil {
		return err
	}
	if len(recs) == 0 && mark.IsZero() {
		return nil
	}
	if d.n == 1 {
		b := GetBatch(len(recs))
		*b = append(*b, recs...)
		d.chans[0] <- msg{recs: *b, buf: b, mark: mark}
		return nil
	}
	sizeHint := len(recs)/d.n + len(recs)/8 + 1
	// Adjacent records usually share a source (scan bursts, merged
	// ingest runs): reuse the previous record's partition instead of
	// re-hashing, which also keeps same-source runs adjacent within a
	// shard batch — the shape the detector/IDS grouped ProcessBatch
	// paths turn into single-probe lookups.
	var prevSrc netip.Addr
	prevIdx := -1
	for _, r := range recs {
		i := prevIdx
		if i < 0 || r.Src != prevSrc {
			i = Partition(r.Src, d.level, d.n)
			prevSrc, prevIdx = r.Src, i
		}
		p := d.parts[i]
		if p == nil {
			p = GetBatch(sizeHint)
			d.parts[i] = p
		}
		*p = append(*p, r)
	}
	for i, p := range d.parts {
		d.parts[i] = nil
		if p != nil {
			d.chans[i] <- msg{recs: *p, buf: p, mark: mark}
		} else if !mark.IsZero() {
			d.chans[i] <- msg{mark: mark}
		}
	}
	return nil
}

// Barrier blocks until every shard has processed all queued work,
// after which the dispatching goroutine may read shard-owned state
// directly — the channel round-trip establishes the happens-before
// edge. Returns the first worker error, if any.
func (d *Dispatcher) Barrier() error {
	if d.closed {
		return ErrClosed
	}
	for _, ch := range d.chans {
		ch <- msg{done: d.barrier}
	}
	for range d.chans {
		<-d.barrier
	}
	return d.Err()
}

// Close stops the workers and joins them. It is idempotent: repeat
// calls re-report the first worker error. A worker error never skips
// the shutdown — the channels close and the workers drain and join
// either way, so a failed run cannot leak its shard goroutines.
func (d *Dispatcher) Close() error {
	if !d.closed {
		d.closed = true
		for _, ch := range d.chans {
			close(ch)
		}
		d.wg.Wait()
	}
	return d.Err()
}
