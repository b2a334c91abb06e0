package pipeline

import (
	"errors"
	"sync"

	"v6scan/internal/dispatch"
	"v6scan/internal/firewall"
)

// MergeSource k-way merges N time-ordered sources — one per day-file —
// into a single time-ordered stream, so a month of logs becomes one
// pipeline run. Each input source runs in its own goroutine and hands
// batches to the merger under a blocking handshake: the source stays
// parked inside its own emit until the merger has drained the batch,
// so pooled input batches are never copied and never outlive their
// loan (see "Batch ownership" in the package doc). The merge itself is
// a loser tree over the k batch heads: each pop costs one leaf-to-root
// replay (⌈log₂ k⌉ comparisons) instead of a k-way scan.
//
// Ties across sources break toward the lower source index, so merging
// chronologically split day-files reproduces exactly the concatenated
// single-file run (TestMergeSourceMatchesConcatenated and the
// cmd/v6scan multi-file goldens). Inputs must individually be in
// non-decreasing time order; disorder within a source travels into the
// output untouched, as with any time-ordered source.
type MergeSource struct {
	srcs []Source
}

// NewMergeSource returns a source merging srcs in timestamp order.
func NewMergeSource(srcs ...Source) *MergeSource {
	return &MergeSource{srcs: append([]Source(nil), srcs...)}
}

// errMergeStopped aborts a feeding source's emit when the merge halts
// early (downstream error or another source failing). It never escapes
// EmitBatch.
var errMergeStopped = errors.New("pipeline: merge stopped")

// mergeFeed is the handshake between one source goroutine and the
// merger: a batch travels over ch, and the source blocks until ack
// confirms the merger is done reading it. err is set before ch closes.
type mergeFeed struct {
	ch  chan []firewall.Record
	ack chan struct{}
	err error
}

// EmitBatch implements Source. Merged records are copied off the
// input batch heads into the merger's own pooled output batches, so
// downstream compaction never aliases an input source's buffer.
func (m *MergeSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	batchSize = batchLimit(batchSize)
	k := len(m.srcs)
	switch k {
	case 0:
		return nil
	case 1:
		// Nothing to merge; delegate without the goroutine handshake.
		return m.srcs[0].EmitBatch(batchSize, emit)
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	defer wg.Wait() // runs after halt: stop releases any parked source
	defer halt()

	feeds := make([]*mergeFeed, k)
	for i, src := range m.srcs {
		f := &mergeFeed{ch: make(chan []firewall.Record), ack: make(chan struct{})}
		feeds[i] = f
		wg.Add(1)
		go func(src Source, f *mergeFeed) {
			defer wg.Done()
			defer close(f.ch)
			f.err = feedSource(src, batchSize, f, stop)
		}(src, f)
	}

	var (
		cur    = make([][]firewall.Record, k) // loaned batch per source
		pos    = make([]int, k)
		heads  = make([]firewall.Record, k)
		done   = make([]bool, k)
		failed error
	)
	// load pulls source i's next batch; on channel close it marks the
	// source exhausted and surfaces its error, if any.
	load := func(i int) {
		recs, ok := <-feeds[i].ch
		if !ok {
			done[i] = true
			cur[i] = nil
			if feeds[i].err != nil && failed == nil {
				failed = feeds[i].err
			}
			return
		}
		cur[i], pos[i], heads[i] = recs, 0, recs[0]
	}
	// advance pops source i's head; a drained batch is acked back to
	// its parked source goroutine before the next one is loaded.
	advance := func(i int) {
		pos[i]++
		if pos[i] < len(cur[i]) {
			heads[i] = cur[i][pos[i]]
			return
		}
		feeds[i].ack <- struct{}{}
		load(i)
	}

	for i := 0; i < k; i++ {
		load(i)
		if failed != nil {
			return failed
		}
	}

	lt := newLoserTree(k, func(a, b int) bool {
		if done[a] != done[b] {
			return !done[a] // live sources beat exhausted ones
		}
		if done[a] {
			return a < b
		}
		if heads[a].Time.Before(heads[b].Time) {
			return true
		}
		if heads[b].Time.Before(heads[a].Time) {
			return false
		}
		return a < b // tie: lower source index first (= concatenation order)
	})

	out := dispatch.GetBatch(batchSize)
	defer dispatch.PutBatch(out)
	for {
		w := lt.winner()
		if done[w] {
			break // winner exhausted ⇒ every source is
		}
		*out = append(*out, heads[w])
		if len(*out) == batchSize {
			if err := emit(*out); err != nil {
				return err
			}
			*out = (*out)[:0]
		}
		advance(w)
		if failed != nil {
			return failed
		}
		lt.replay(w)
	}
	if len(*out) > 0 {
		return emit(*out)
	}
	return nil
}

// feedSource runs src inside its goroutine, delivering every batch
// through f's handshake. errMergeStopped from a halted merge is the
// normal early-shutdown path, not a source failure.
func feedSource(src Source, batchSize int, f *mergeFeed, stop <-chan struct{}) error {
	deliver := func(recs []firewall.Record) error {
		if len(recs) == 0 {
			return nil
		}
		select {
		case f.ch <- recs:
		case <-stop:
			return errMergeStopped
		}
		select {
		case <-f.ack:
			return nil
		case <-stop:
			return errMergeStopped
		}
	}
	err := src.EmitBatch(batchSize, deliver)
	if err == errMergeStopped {
		return nil // the merger told us to stop; not a source failure
	}
	return err
}

// loserTree is a tournament tree over k sources: node[0] holds the
// overall winner, node[1..k-1] the loser of the match played at each
// internal node. Popping the winner costs one replay along the
// winner's leaf-to-root path — ⌈log₂ k⌉ comparisons — instead of a
// k-way scan, which is what makes wide merges (a month of day-files)
// cheap per record.
type loserTree struct {
	k    int
	node []int
	less func(a, b int) bool
}

// newLoserTree builds the tree by replaying each leaf; unplayed
// matches hold -1 and adopt the first arrival (the standard implicit
// construction, correct for any k ≥ 2).
func newLoserTree(k int, less func(a, b int) bool) *loserTree {
	t := &loserTree{k: k, node: make([]int, k), less: less}
	for i := range t.node {
		t.node[i] = -1
	}
	for s := k - 1; s >= 0; s-- {
		t.replay(s)
	}
	return t
}

// winner returns the current overall winner's source index.
func (t *loserTree) winner() int { return t.node[0] }

// replay re-runs source s's matches from its leaf to the root after
// its head changed, leaving the new overall winner in node[0].
func (t *loserTree) replay(s int) {
	w := s
	for i := (s + t.k) / 2; i >= 1; i /= 2 {
		if t.node[i] == -1 { // construction: park here, match unplayed
			t.node[i] = w
			return
		}
		if t.less(t.node[i], w) {
			w, t.node[i] = t.node[i], w
		}
	}
	t.node[0] = w
}
