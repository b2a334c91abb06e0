package pipeline

import (
	"fmt"
	"os"
	"runtime"

	"v6scan/internal/firewall"
)

// FilesSource ingests one or more binary firewall log files — the
// multi-day workload: each file decodes through its own
// ParallelLogSource and, with more than one file, the per-file streams
// k-way merge in timestamp order (MergeSource), so a month of day-logs
// is one pipeline run. Files are opened lazily when the source runs,
// which is what lets the fluent FromFiles builder entry stay
// error-free: an unreadable path surfaces from the run itself.
type FilesSource struct {
	paths []string
	// workers is the total decode worker budget, set by
	// Builder.DecodeWorkers; non-positive means one per CPU.
	workers int
}

// NewFilesSource returns a source over the given log files, merged in
// timestamp order when there is more than one.
func NewFilesSource(paths ...string) *FilesSource {
	return &FilesSource{paths: append([]string(nil), paths...)}
}

// EmitBatch implements Source. The worker budget is divided
// across files (rounding up, minimum one each): the merge consumes the
// files at similar rates, so per-file decode only needs a share of the
// total throughput.
func (s *FilesSource) EmitBatch(batchSize int, emit func(recs []firewall.Record) error) error {
	if len(s.paths) == 0 {
		return nil
	}
	workers := s.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	perFile := (workers + len(s.paths) - 1) / len(s.paths)

	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	srcs := make([]Source, 0, len(s.paths))
	infos := make([]os.FileInfo, 0, len(s.paths))
	for _, p := range s.paths {
		f, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("pipeline: opening log: %w", err)
		}
		files = append(files, f)
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("pipeline: sizing log %s: %w", p, err)
		}
		// The same file listed twice — same path, a symlink, a hardlink —
		// would silently double its records in the merged stream, so the
		// opened handles' identities must be pairwise distinct.
		for j, prev := range infos {
			if os.SameFile(prev, fi) {
				return fmt.Errorf("pipeline: duplicate input: %q and %q are the same file",
					s.paths[j], p)
			}
		}
		infos = append(infos, fi)
		srcs = append(srcs, NewParallelLogSource(f, fi.Size(), perFile))
	}
	if len(srcs) == 1 {
		return srcs[0].EmitBatch(batchSize, emit)
	}
	return NewMergeSource(srcs...).EmitBatch(batchSize, emit)
}
