package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6scan/internal/firewall"
)

// collectBatches appends every emitted batch into *dst (copying, since
// emitted batches are pooled loans).
func collectBatches(dst *[]firewall.Record) func([]firewall.Record) error {
	return func(recs []firewall.Record) error {
		*dst = append(*dst, recs...)
		return nil
	}
}

// serialDecode is the reference: the serial LogSource's record
// sequence and final error over the given log bytes.
func serialDecode(data []byte, batchSize int) ([]firewall.Record, error) {
	var recs []firewall.Record
	err := NewLogSource(bytes.NewReader(data)).EmitBatch(batchSize, collectBatches(&recs))
	return recs, err
}

// TestParallelLogSourceParity pins the tentpole contract: the parallel
// source's record sequence is identical to the serial LogSource at 1,
// 2, and 8 workers (run under -race in CI), across batch sizes.
func TestParallelLogSourceParity(t *testing.T) {
	recs := streamParityRecords(20_000)
	data := encodeLog(t, recs)
	for _, batchSize := range []int{1, 7, 512, DefaultBatchSize} {
		want, err := serialDecode(data, batchSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			var got []firewall.Record
			src := NewParallelLogSource(bytes.NewReader(data), int64(len(data)), workers)
			if err := src.EmitBatch(batchSize, collectBatches(&got)); err != nil {
				t.Fatalf("batch=%d workers=%d: %v", batchSize, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("batch=%d workers=%d: %d records, want %d", batchSize, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("batch=%d workers=%d: record %d differs", batchSize, workers, i)
				}
			}
		}
	}
}

// TestParallelLogSourceTruncated checks error parity on a torn log:
// same decoded records, and an error in the same ErrShortRecord class
// with the same text as the serial reader's.
func TestParallelLogSourceTruncated(t *testing.T) {
	data := encodeLog(t, streamParityRecords(1000))
	data = data[:len(data)-11]
	want, wantErr := serialDecode(data, 128)
	if !errors.Is(wantErr, firewall.ErrShortRecord) {
		t.Fatalf("serial err = %v", wantErr)
	}
	for _, workers := range []int{1, 2, 8} {
		var got []firewall.Record
		src := NewParallelLogSource(bytes.NewReader(data), int64(len(data)), workers)
		err := src.EmitBatch(128, collectBatches(&got))
		if !errors.Is(err, firewall.ErrShortRecord) || err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: err %q, want %q", workers, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d records before error, want %d", workers, len(got), len(want))
		}
	}
}

// TestParallelLogSourceEmitError verifies a downstream error aborts
// the fan-out promptly and is returned unwrapped (the Source
// contract), with all worker goroutines joined before return.
func TestParallelLogSourceEmitError(t *testing.T) {
	data := encodeLog(t, streamParityRecords(50_000))
	sentinel := errors.New("downstream says stop")
	src := NewParallelLogSource(bytes.NewReader(data), int64(len(data)), 4)
	calls := 0
	err := src.EmitBatch(256, func([]firewall.Record) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want the sentinel unwrapped", err)
	}
	if calls != 3 {
		t.Fatalf("emit called %d times after abort, want 3", calls)
	}
}

func TestParallelLogSourceEmpty(t *testing.T) {
	src := NewParallelLogSource(bytes.NewReader(nil), 0, 4)
	err := src.EmitBatch(64, func([]firewall.Record) error {
		t.Fatal("emit on empty input")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMergeSourceMatchesConcatenated pins the k-way merge contract:
// merging chronologically split day-files reproduces the concatenated
// single-file sequence exactly, including ties at the split points.
func TestMergeSourceMatchesConcatenated(t *testing.T) {
	recs := streamParityRecords(30_000)
	whole := encodeLog(t, recs)
	want, err := serialDecode(whole, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 7} {
		srcs := make([]Source, 0, k)
		for i := 0; i < k; i++ {
			lo, hi := i*len(recs)/k, (i+1)*len(recs)/k
			srcs = append(srcs, NewLogSource(bytes.NewReader(encodeLog(t, recs[lo:hi]))))
		}
		var got []firewall.Record
		if err := NewMergeSource(srcs...).EmitBatch(512, collectBatches(&got)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d records, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d: record %d differs from concatenated run", k, i)
			}
		}
	}
}

// TestMergeSourceInterleaved merges round-robin-split inputs — the
// maximally interleaving case — and checks the output is the stable
// time-ordered interleave (equal to the original sorted sequence,
// since each part preserves its relative order).
func TestMergeSourceInterleaved(t *testing.T) {
	recs := streamParityRecords(10_000)
	const k = 4
	parts := make([][]firewall.Record, k)
	for i, r := range recs {
		parts[i%k] = append(parts[i%k], r)
	}
	srcs := make([]Source, k)
	for i := range parts {
		srcs[i] = NewLogSource(bytes.NewReader(encodeLog(t, parts[i])))
	}
	var got []firewall.Record
	if err := NewMergeSource(srcs...).EmitBatch(256, collectBatches(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d out of order in merged stream", i)
		}
	}
}

// TestMergeSourceTieBreak pins the tie rule directly: equal timestamps
// across sources come out in source-index order.
func TestMergeSourceTieBreak(t *testing.T) {
	ts := time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)
	mk := func(port uint16) firewall.Record {
		r := streamParityRecords(1)[0]
		r.Time, r.DstPort = ts, port
		return r
	}
	a, b, c := mk(1), mk(2), mk(3)
	srcs := []Source{SliceSource{a, a}, SliceSource{b}, SliceSource{c, c}}
	var got []firewall.Record
	if err := NewMergeSource(srcs...).EmitBatch(64, collectBatches(&got)); err != nil {
		t.Fatal(err)
	}
	want := []firewall.Record{a, a, b, c, c}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = port %d, want port %d", i, got[i].DstPort, want[i].DstPort)
		}
	}
}

// TestMergeSourceSourceError: a failing input aborts the merge with
// that source's error, and every feeding goroutine shuts down (the
// test would deadlock or trip -race otherwise).
func TestMergeSourceSourceError(t *testing.T) {
	good := encodeLog(t, streamParityRecords(5000))
	torn := encodeLog(t, streamParityRecords(5000))
	torn = torn[:len(torn)-7]
	srcs := []Source{
		NewLogSource(bytes.NewReader(good)),
		NewLogSource(bytes.NewReader(torn)),
	}
	var got []firewall.Record
	err := NewMergeSource(srcs...).EmitBatch(128, collectBatches(&got))
	if !errors.Is(err, firewall.ErrShortRecord) {
		t.Fatalf("err = %v, want ErrShortRecord from the torn source", err)
	}
}

// TestMergeSourceEmitError: a downstream error aborts all feeders and
// returns unwrapped.
func TestMergeSourceEmitError(t *testing.T) {
	srcs := make([]Source, 3)
	for i := range srcs {
		srcs[i] = NewLogSource(bytes.NewReader(encodeLog(t, streamParityRecords(5000))))
	}
	sentinel := errors.New("stop the merge")
	err := NewMergeSource(srcs...).EmitBatch(64, func([]firewall.Record) error { return sentinel })
	if err != sentinel {
		t.Fatalf("err = %v, want the sentinel unwrapped", err)
	}
}

func TestMergeSourceEmpty(t *testing.T) {
	if err := NewMergeSource().EmitBatch(64, func([]firewall.Record) error {
		t.Fatal("emit with no sources")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// All-empty inputs: no emits, clean end.
	srcs := []Source{SliceSource{}, SliceSource{}}
	if err := NewMergeSource(srcs...).EmitBatch(64, func([]firewall.Record) error {
		t.Fatal("emit with all-empty sources")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFromFilesMissing: a bad path surfaces from the run, per the
// lazy-open contract.
func TestFromFilesMissing(t *testing.T) {
	_, err := FromFiles(filepath.Join(t.TempDir(), "absent.log")).
		Detect(context.Background(), streamParityConfig(), 1)
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want wrapped os.ErrNotExist", err)
	}
}

// TestFromFilesDuplicateInput: the same log reached twice — repeated
// path, symlink, or hardlink — would silently double every record in
// the merged stream, so the run must refuse with a diagnostic naming
// both paths.
func TestFromFilesDuplicateInput(t *testing.T) {
	dir := t.TempDir()
	real := filepath.Join(dir, "day.log")
	if err := os.WriteFile(real, encodeLog(t, streamParityRecords(100)), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.log")
	if err := os.WriteFile(other, encodeLog(t, streamParityRecords(50)), 0o644); err != nil {
		t.Fatal(err)
	}

	aliases := map[string]func() (string, error){
		"repeated path": func() (string, error) { return real, nil },
		"symlink": func() (string, error) {
			link := filepath.Join(dir, "day-symlink.log")
			return link, os.Symlink(real, link)
		},
		"hardlink": func() (string, error) {
			link := filepath.Join(dir, "day-hardlink.log")
			return link, os.Link(real, link)
		},
	}
	for name, mk := range aliases {
		alias, err := mk()
		if err != nil {
			t.Skipf("%s: %v", name, err) // filesystem without link support
		}
		_, err = FromFiles(real, other, alias).
			Detect(context.Background(), streamParityConfig(), 1)
		if err == nil || !strings.Contains(err.Error(), "duplicate input") {
			t.Errorf("%s: err = %v, want duplicate-input diagnostic", name, err)
		}
		if err != nil && !(strings.Contains(err.Error(), real) || strings.Contains(err.Error(), alias)) {
			t.Errorf("%s: diagnostic %q names neither path", name, err)
		}
	}

	// Distinct files with identical content are not duplicates.
	copyPath := filepath.Join(dir, "copy.log")
	b, err := os.ReadFile(real)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromFiles(real, copyPath).
		Detect(context.Background(), streamParityConfig(), 1); err != nil {
		t.Errorf("independent copy rejected: %v", err)
	}
}
