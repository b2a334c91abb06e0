package checkpoint

import (
	"fmt"
	"io"
	"slices"
	"time"

	"v6scan/internal/netaddr6"
)

// Keyed is one gathered level entry: its key and the kind's handle on
// its state.
type Keyed[E any] struct {
	Key netaddr6.U128
	Val E
}

// Body is a snapshot kind's half of WriteBody.
type Body[E any] interface {
	// Levels returns the configured levels in section order.
	Levels() []netaddr6.AggLevel
	// Config encodes the config payload.
	Config(e *Enc)
	// Gather appends every shard's entries at level index li to dst.
	Gather(dst []Keyed[E], li int) []Keyed[E]
	// Entry encodes one entry's state, after its key.
	Entry(e *Enc, v E)
	// Results encodes the results payload.
	Results(e *Enc)
}

// Restorer is a snapshot kind's half of ReadBody.
type Restorer interface {
	// Config decodes the config payload, builds the empty restored
	// state, and returns its levels, which level sections must name.
	Config(d *Dec) ([]netaddr6.AggLevel, error)
	// Entry decodes the state of the entry at key and level index li
	// into the shard that owns key.
	Entry(d *Dec, li int, key netaddr6.U128) error
	// Results decodes the results payload.
	Results(d *Dec) error
}

// Buffers are the buffers WriteBody fills: one payload encoder, one
// gather slice and the counters of the key sort (netaddr6.SortByKey). A
// snapshot kind keeps one Buffers across its cuts, so each grows to the
// largest section once and a steady-state cut neither allocates nor
// copies on growth; the previous cut sizes the next.
type Buffers[E any] struct {
	enc     Enc
	entries []Keyed[E]
	counts  []uint32
}

// WriteBody writes a snapshot of kind at mark in the body layout, each
// level's entries from every shard merged and sorted by key with
// netaddr6.SortByKey, encoding every section in buf's one Enc. Keys are
// unique within a level, so their ascending order is unique and a cut's
// bytes do not depend on the shards' gather order. It clears the
// gathered entries before returning, so buf pins no state between cuts.
func WriteBody[E any](w io.Writer, kind uint8, mark time.Time, b Body[E], buf *Buffers[E]) error {
	cw, err := NewWriter(w, kind, mark)
	if err != nil {
		return err
	}
	e := &buf.enc
	e.B = e.B[:0]
	b.Config(e)
	if err := cw.Section(secConfig, e.B); err != nil {
		return err
	}
	entries := buf.entries
	defer func() {
		clear(entries[:cap(entries)])
		buf.entries = entries[:0]
	}()
	for li, l := range b.Levels() {
		entries = b.Gather(entries[:0], li)
		netaddr6.SortByKey(entries, func(x Keyed[E]) netaddr6.U128 { return x.Key }, &buf.counts)
		e.B = e.B[:0]
		e.Varint(int64(l))
		e.Uvarint(uint64(len(entries)))
		for i := range entries {
			e.U64(entries[i].Key.Hi)
			e.U64(entries[i].Key.Lo)
			b.Entry(e, entries[i].Val)
		}
		if err := cw.Section(secLevel, e.B); err != nil {
			return err
		}
	}
	e.B = e.B[:0]
	b.Results(e)
	if err := cw.Section(secResults, e.B); err != nil {
		return err
	}
	return cw.Close()
}

// ReadBody restores a snapshot of kind from cr, positioned at its first
// section as NewReader leaves it, through r. It enforces the body
// layout: the header's kind, the config section once and first, level
// and results sections after it, and at most one results section; any
// other section kind, or no config, fails with ErrFormat.
func ReadBody(cr *Reader, kind uint8, r Restorer) error {
	if k := cr.Header().Kind; k != kind {
		return fmt.Errorf("%w: snapshot kind %d, want %d", ErrFormat, k, kind)
	}
	var (
		levels                []netaddr6.AggLevel
		sawConfig, sawResults bool
	)
	for {
		sec, payload, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		d := NewDec(payload)
		switch {
		case sec != secConfig && sec != secLevel && sec != secResults:
			err = fmt.Errorf("%w: unknown section kind %d", ErrFormat, sec)
		case sec == secConfig && sawConfig:
			err = fmt.Errorf("%w: duplicate config section", ErrFormat)
		case sec == secConfig:
			sawConfig = true
			levels, err = r.Config(d)
		case !sawConfig:
			err = fmt.Errorf("%w: section kind %d before config", ErrFormat, sec)
		case sec == secLevel:
			err = readLevel(d, levels, r)
		case sawResults:
			err = fmt.Errorf("%w: duplicate results section", ErrFormat)
		default:
			sawResults = true
			err = r.Results(d)
		}
		if err == nil {
			err = d.Err()
		}
		if err != nil {
			return err
		}
	}
	if !sawConfig {
		return fmt.Errorf("%w: missing config section", ErrFormat)
	}
	return nil
}

// readLevel decodes one level section's entries through r.
func readLevel(d *Dec, levels []netaddr6.AggLevel, r Restorer) error {
	li, err := d.Level(levels)
	if err != nil {
		return err
	}
	n := d.Uvarint()
	var prev netaddr6.U128
	for i := uint64(0); i < n; i++ {
		key := netaddr6.U128{Hi: d.U64(), Lo: d.U64()}
		if err := d.Err(); err != nil {
			return err
		}
		if i > 0 && key.Cmp(prev) <= 0 {
			return fmt.Errorf("%w: level keys out of order", ErrFormat)
		}
		prev = key
		if err := r.Entry(d, li, key); err != nil {
			return err
		}
	}
	return nil
}

// Level reads a level written with Enc.Varint and returns its index in
// levels, failing with ErrFormat when the configuration lacks it.
func (d *Dec) Level(levels []netaddr6.AggLevel) (int, error) {
	l := netaddr6.AggLevel(d.Varint())
	if d.err != nil {
		return 0, d.err
	}
	if i := slices.Index(levels, l); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("%w: level %v not in configuration", ErrFormat, l)
}
