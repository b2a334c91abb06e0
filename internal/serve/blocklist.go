package serve

// Blocklist export: every published alert's recommended prefix is
// folded into a deduplicated set and the whole rule file is rewritten
// atomically (temp file + rename) — a consumer (firewall reload hook,
// config-management agent) always reads either the previous complete
// list or the next one, never a partial write.

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"v6scan/internal/ids"
)

// blocklist accumulates alert prefixes and mirrors them to a rule
// file. Only the daemon's IDS-sink hook touches it, on the pipeline's
// dispatching goroutine.
type blocklist struct {
	path string
	set  map[netip.Prefix]struct{}
}

func newBlocklist(path string) *blocklist {
	return &blocklist{path: path, set: make(map[netip.Prefix]struct{})}
}

// add folds a batch of alerts in and reports whether the set grew.
func (b *blocklist) add(alerts []ids.Alert) bool {
	grew := false
	for _, a := range alerts {
		if _, ok := b.set[a.Prefix]; !ok {
			b.set[a.Prefix] = struct{}{}
			grew = true
		}
	}
	return grew
}

// write atomically rewrites the rule file: one CIDR per line, sorted
// (address, then prefix length) so consecutive exports diff cleanly.
func (b *blocklist) write() error {
	prefixes := make([]netip.Prefix, 0, len(b.set))
	for p := range b.set {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		if c := prefixes[i].Addr().Compare(prefixes[j].Addr()); c != 0 {
			return c < 0
		}
		return prefixes[i].Bits() < prefixes[j].Bits()
	})
	f, err := os.CreateTemp(filepath.Dir(b.path), ".blocklist-*")
	if err != nil {
		return fmt.Errorf("serve: blocklist export: %w", err)
	}
	tmp := f.Name()
	for _, p := range prefixes {
		if _, err := fmt.Fprintln(f, p); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("serve: blocklist export: %w", err)
		}
	}
	if err := f.Sync(); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: blocklist export: %w", err)
	}
	if err := os.Rename(tmp, b.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: blocklist export: %w", err)
	}
	return nil
}
