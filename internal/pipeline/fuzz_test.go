package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"v6scan/internal/firewall"
)

// fuzzSeedLogs returns representative corpus seeds: a clean multi-
// record log, truncations at interesting offsets, and junk.
func fuzzSeedLogs() [][]byte {
	var buf bytes.Buffer
	w := firewall.NewWriter(&buf)
	for _, r := range streamParityRecords(200) {
		w.Write(r)
	}
	w.Flush()
	clean := buf.Bytes()
	// An IPv4-mapped source in the third record: decoding stops there.
	mapped := bytes.Clone(clean)
	copy(mapped[2*firewall.RecordWireSize+8:], netip.MustParseAddr("::ffff:192.0.2.1").AsSlice())
	return [][]byte{
		nil,
		clean,
		clean[:len(clean)-1],
		clean[:firewall.RecordWireSize-1],
		clean[:firewall.RecordWireSize*3+17],
		bytes.Repeat([]byte{0xab}, 200),
		mapped,
	}
}

// FuzzParallelDecode differentially fuzzes the chunked decode paths:
// for arbitrary log bytes and an arbitrary worker count, the
// ParallelLogSource must produce exactly the serial LogSource's record
// sequence and error class — including the trailing-bytes
// ErrShortRecord text on torn logs and ErrNotIPv6 on a rejected
// record. So must a TailSource that drains the bytes as a file once,
// except that it holds a torn trailing record for its next poll
// instead of failing on it. It also checks the chunk planner's
// coverage invariants on every input.
func FuzzParallelDecode(f *testing.F) {
	for _, seed := range fuzzSeedLogs() {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, workerSeed uint8) {
		workers := int(workerSeed%8) + 1

		chunks := firewall.PlanChunks(int64(len(data)), workers)
		var off int64
		for i, c := range chunks {
			if c.Offset != off || c.Length <= 0 {
				t.Fatalf("chunk %d = %+v, want contiguous from %d", i, c, off)
			}
			if i < len(chunks)-1 && c.Length%firewall.RecordWireSize != 0 {
				t.Fatalf("non-final chunk %d unaligned: %d bytes", i, c.Length)
			}
			off += c.Length
		}
		if off != int64(len(data)) {
			t.Fatalf("plan covers %d of %d bytes", off, len(data))
		}

		const batchSize = 64
		var want []firewall.Record
		wantErr := NewLogSource(bytes.NewReader(data)).EmitBatch(batchSize, collectBatches(&want))

		var got []firewall.Record
		src := NewParallelLogSource(bytes.NewReader(data), int64(len(data)), workers)
		gotErr := src.EmitBatch(batchSize, collectBatches(&got))

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("workers=%d: parallel err %v, serial err %v", workers, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("workers=%d: parallel err %q, serial err %q", workers, gotErr, wantErr)
			}
			for _, class := range []error{firewall.ErrShortRecord, firewall.ErrNotIPv6} {
				if errors.Is(wantErr, class) != errors.Is(gotErr, class) {
					t.Fatalf("workers=%d: error class diverges: %v vs %v", workers, gotErr, wantErr)
				}
			}
		}
		sameRecords(t, fmt.Sprint("parallel workers=", workers), got, want)

		// The tail, cancelled up front: it drains the file once and ends.
		path := filepath.Join(t.TempDir(), "fw.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var tailed []firewall.Record
		tailErr := NewTailSource(path, TailConfig{Context: ctx}).EmitBatch(batchSize, collectBatches(&tailed))
		if errors.Is(wantErr, firewall.ErrShortRecord) {
			wantErr = nil // the torn trailing record waits for the next poll
		}
		if (tailErr == nil) != (wantErr == nil) || tailErr != nil && tailErr.Error() != wantErr.Error() {
			t.Fatalf("tail err %v, serial err %v", tailErr, wantErr)
		}
		sameRecords(t, "tail", tailed, want)
	})
}

// sameRecords fails the test unless got is want, record for record.
func sameRecords(t *testing.T, name string, got, want []firewall.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, serial %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d differs from serial decode", name, i)
		}
	}
}
