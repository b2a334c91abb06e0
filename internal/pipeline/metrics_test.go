package pipeline

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"v6scan/internal/core"
	"v6scan/internal/firewall"
	"v6scan/internal/ids"
	"v6scan/internal/metrics"
)

// meterRecords builds an hour of one-record-per-second traffic.
func meterRecords(n int) []firewall.Record {
	base := time.Date(2021, 5, 20, 0, 0, 0, 0, time.UTC)
	recs := make([]firewall.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, firewall.Record{
			Time: base.Add(time.Duration(i) * time.Second),
			Src:  netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", i%256+1)),
			Dst:  netip.MustParseAddr("2001:db8:ffff::1"),
		})
	}
	return recs
}

// TestInstrumentedPipelineCounts: the meter stage counts raw source
// output, the terminal reports advance fires and checkpoint writes,
// and none of it changes the pipeline's results.
func TestInstrumentedPipelineCounts(t *testing.T) {
	recs := meterRecords(3600)
	reg := metrics.NewRegistry()
	m := RegisterMetrics(reg)
	dir := t.TempDir()

	sink := NewIDSSink(ids.New(ids.Config{}))
	err := From(SliceSource(recs)).
		Instrument(m).
		AdvanceEvery(10*time.Minute).
		CheckpointEvery(30*time.Minute, dir).
		RunInto(context.Background(), sink)
	if err != nil {
		t.Fatal(err)
	}

	if got := m.SourceRecords.Value(); got != 3600 {
		t.Errorf("SourceRecords = %d, want 3600", got)
	}
	if got := m.SourceBatches.Value(); got == 0 {
		t.Error("SourceBatches = 0, want > 0")
	}
	if got := m.BatchOccupancy.Count(); got != m.SourceBatches.Value() {
		t.Errorf("BatchOccupancy observations = %d, want %d", got, m.SourceBatches.Value())
	}
	// Fires at 00:10, 00:20, ..., 00:59 → 5 fires (the first record
	// only arms the cadence; the last fire ≤ 59:59 is at 00:50).
	if got := m.Advances.Value(); got != 5 {
		t.Errorf("Advances = %d, want 5", got)
	}
	if got := m.EvictionLagSeconds.Value(); got != 600 {
		t.Errorf("EvictionLagSeconds = %v, want 600", got)
	}
	// Checkpoints ride advance fires: the checkpoint cadence arms at
	// the first fire (00:10) and cuts at the first fire ≥ 30m later
	// (00:40) — at least one cut in the hour.
	if got := m.Checkpoints.Value(); got == 0 {
		t.Error("Checkpoints = 0, want > 0")
	}
	if got := m.CheckpointDurationSeconds.Count(); got != m.Checkpoints.Value() {
		t.Errorf("duration observations = %d, want %d", got, m.Checkpoints.Value())
	}

	// Exposition sanity: every family renders.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"v6scan_pipeline_records_total 3600",
		"v6scan_pipeline_advances_total 5",
		"v6scan_pipeline_batch_occupancy_bucket",
		"v6scan_dispatch_pool_hit_rate",
		"v6scan_pipeline_checkpoint_age_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestInstrumentSinkVariants: all four terminal sinks accept the
// bundle through RunInto and report advances.
func TestInstrumentSinkVariants(t *testing.T) {
	recs := meterRecords(3600)
	sinks := map[string]RecordSink{
		"detector":    NewShardedSink(core.NewShardedDetector(core.Config{}, 1)),
		"sharded":     NewShardedSink(core.NewShardedDetector(core.Config{}, 4)),
		"ids":         NewIDSSink(ids.New(ids.Config{})),
		"sharded-ids": NewIDSSink(ids.NewSharded(ids.Config{}, 4)),
	}
	for name, sink := range sinks {
		t.Run(name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			m := RegisterMetrics(reg)
			err := From(SliceSource(recs)).
				Instrument(m).
				AdvanceEvery(10*time.Minute).
				RunInto(context.Background(), sink)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Advances.Value(); got != 5 {
				t.Errorf("Advances = %d, want 5", got)
			}
			if got := m.SourceRecords.Value(); got != 3600 {
				t.Errorf("SourceRecords = %d, want 3600", got)
			}
		})
	}
}
