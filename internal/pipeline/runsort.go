package pipeline

import (
	"v6scan/internal/firewall"
)

// Run-aware stable time merging, shared by DaySort and WindowSort.
//
// The pipeline's record sources are time-ordered in the common case —
// firewall logs are written in order, pcap captures nearly always are
// — so a full sort.SliceStable over a buffer does O(n log n)
// comparisons to discover what one linear scan already knows. Both
// buffering stages track maximal non-decreasing runs as records
// arrive: an already-sorted buffer is a single run and costs nothing
// to "sort", and disordered input is repaired by stable bottom-up
// merges of adjacent runs whose scratch window is bounded by the
// longest left run of a pass — not the whole buffer — cutting both
// sort cost and peak auxiliary memory on mostly-sorted streams.

// runBuf is the record buffer of both sorting stages: records append
// in arrival order, each break in non-decreasing time opens a new run,
// and sort merges the runs in place.
type runBuf struct {
	recs []firewall.Record
	// runs holds the start index of every non-first sorted run in recs
	// (empty while recs is in arrival=timestamp order); bounds and
	// scratch are reused merge workspace.
	runs    []int
	bounds  []int
	scratch []firewall.Record
}

// push appends recs, opening a new run at each break in time order.
func (b *runBuf) push(recs []firewall.Record) {
	n := len(b.recs)
	b.recs = append(b.recs, recs...)
	for i := max(n, 1); i < len(b.recs); i++ {
		if b.recs[i].Time.Before(b.recs[i-1].Time) {
			b.runs = append(b.runs, i)
		}
	}
}

// sort merges the runs so recs is in stable timestamp order; an
// in-order buffer costs nothing.
func (b *runBuf) sort() {
	if len(b.runs) == 0 {
		return
	}
	b.bounds = append(append(b.bounds[:0], 0), b.runs...)
	b.bounds = append(b.bounds, len(b.recs))
	mergeBounds(b.recs, b.bounds, &b.scratch)
	b.runs = b.runs[:0]
}

// mergeBounds stably merges the sorted runs delimited by bounds
// (bounds[0] == 0, bounds[len-1] == len(recs), interior entries are
// run starts) until one run remains. bounds is consumed as scratch.
func mergeBounds(recs []firewall.Record, bounds []int, scratch *[]firewall.Record) {
	for len(bounds) > 2 {
		w := 1
		i := 0
		for ; i+2 < len(bounds); i += 2 {
			mergeRuns(recs, bounds[i], bounds[i+1], bounds[i+2], scratch)
			bounds[w] = bounds[i+2]
			w++
		}
		if i+1 < len(bounds) {
			// Odd run out: carries to the next pass unmerged, which
			// preserves stability (it is the rightmost, latest run).
			bounds[w] = bounds[i+1]
			w++
		}
		bounds = bounds[:w]
	}
}

// mergeRuns stably merges the adjacent sorted runs recs[lo:mid] and
// recs[mid:hi] in place. Ties take from the left run, preserving
// arrival order among equal timestamps (the sort.SliceStable
// contract). Only the left run is copied to scratch; the right run
// streams directly, so auxiliary memory is bounded by the left run.
func mergeRuns(recs []firewall.Record, lo, mid, hi int, scratch *[]firewall.Record) {
	if !recs[mid].Time.Before(recs[mid-1].Time) {
		// Already ordered across the boundary (common once early
		// passes have repaired local disorder).
		return
	}
	left := append((*scratch)[:0], recs[lo:mid]...)
	*scratch = left
	i, j, k := 0, mid, lo
	for i < len(left) && j < hi {
		if recs[j].Time.Before(left[i].Time) {
			recs[k] = recs[j]
			j++
		} else {
			recs[k] = left[i]
			i++
		}
		k++
	}
	for i < len(left) {
		recs[k] = left[i]
		i++
		k++
	}
	// Any remainder of the right run is already in place.
}
