package pipeline

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
)

// ParallelLogSource decodes a binary firewall log with the decode
// itself sharded: the log is split into record-aligned chunks
// (firewall.PlanChunks), a worker pool bulk-decodes each chunk into a
// pooled batch (firewall.DecodeChunk into the dispatch arena), and the
// emitter reassembles the batches in file order. The emitted record
// sequence — including the error class on a truncated log — is
// byte-identical to the serial LogSource at any worker count
// (TestParallelLogSourceParity, FuzzParallelDecode); only the batch
// boundaries may differ, which no stage observes.
//
// The source requires random access (io.ReaderAt) because workers read
// their chunks concurrently; streaming inputs such as stdin stay on
// the serial LogSource.
type ParallelLogSource struct {
	r       io.ReaderAt
	size    int64
	workers int
}

// NewParallelLogSource returns a source decoding the byte range
// [0, size) of r across workers decode goroutines. A non-positive
// worker count resolves to GOMAXPROCS at run time.
func NewParallelLogSource(r io.ReaderAt, size int64, workers int) *ParallelLogSource {
	return &ParallelLogSource{r: r, size: size, workers: workers}
}

// SetDecodeWorkers adjusts the worker count; it is the hook the
// builder's DecodeWorkers option resolves against.
func (s *ParallelLogSource) SetDecodeWorkers(n int) { s.workers = n }

// decodedChunk is one worker's result: a pooled batch holding the
// chunk's records, plus the decode or read error, if any.
type decodedChunk struct {
	buf *[]firewall.Record
	err error
}

// EmitBatch implements Source. Each planned chunk holds at most
// batchSize records and becomes exactly one emitted batch; a bounded
// window of decoded-but-unemitted chunks (2× the worker count) keeps
// workers busy ahead of the emitter without unbounded buffering.
func (s *ParallelLogSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	batchSize = batchLimit(batchSize)
	workers := s.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.size <= 0 {
		return nil
	}
	// One chunk per batch; when the file is small, split further so
	// every worker still gets work.
	nChunks := int((s.size/firewall.RecordWireSize + int64(batchSize) - 1) / int64(batchSize))
	if nChunks < workers {
		nChunks = workers
	}
	chunks := firewall.PlanChunks(s.size, nChunks)
	maxLen := 0
	for _, c := range chunks {
		if int(c.Length) > maxLen {
			maxLen = int(c.Length)
		}
	}

	type job struct {
		c   firewall.Chunk
		out chan decodedChunk
	}
	var (
		work  = make(chan job)
		slots = make(chan chan decodedChunk, 2*workers)
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]byte, maxLen)
			for j := range work {
				// The result channel is buffered, so the send cannot
				// block even when the emitter has already aborted.
				j.out <- s.decodeChunk(j.c, scratch, batchSize)
			}
		}()
	}
	// Dispatcher: hand chunks to workers and queue their result
	// channels in file order. A job is dispatched before its slot is
	// queued, so every queued slot is guaranteed a result and the
	// emitter can drain slots without deadlocking on abort.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(slots)
		defer close(work)
		for _, c := range chunks {
			out := make(chan decodedChunk, 1)
			select {
			case work <- job{c: c, out: out}:
			case <-stop:
				return
			}
			select {
			case slots <- out:
			case <-stop:
				return
			}
		}
	}()

	// Reassembly: slots arrive in file order, so emitting each result
	// as its slot completes reproduces the serial record sequence. The
	// serial source emits decoded records before surfacing the error
	// that stopped it; matching that here keeps error parity exact.
	var firstErr error
	for out := range slots {
		res := <-out
		if firstErr == nil {
			if res.buf != nil && len(*res.buf) > 0 {
				firstErr = emit(*res.buf)
			}
			if firstErr == nil && res.err != nil {
				firstErr = res.err
			}
			if firstErr != nil {
				halt()
			}
		}
		dispatch.PutBatch(res.buf)
	}
	wg.Wait()
	return firstErr
}

// decodeChunk reads one chunk into the worker's scratch buffer and
// bulk-decodes it into a pooled batch.
func (s *ParallelLogSource) decodeChunk(c firewall.Chunk, scratch []byte, batchSize int) decodedChunk {
	buf := scratch[:c.Length]
	n, err := s.r.ReadAt(buf, c.Offset)
	if int64(n) == c.Length {
		err = nil // a full read may still report io.EOF at the file end
	} else if err == nil {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return decodedChunk{err: fmt.Errorf("pipeline: reading log chunk at offset %d: %w", c.Offset, err)}
	}
	out := dispatch.GetBatch(min(batchSize, c.Records()+1))
	recs, derr := firewall.DecodeChunk(buf, (*out)[:0])
	*out = recs
	return decodedChunk{buf: out, err: derr}
}
