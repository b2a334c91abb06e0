package serve

// Blocklist export: every published alert's recommended prefix is
// folded into a deduplicated set and the whole rule file is rewritten
// atomically (temp file + rename) — a consumer (firewall reload hook,
// config-management agent) always reads either the previous complete
// list or the next one, never a partial write.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"os"
	"sort"
	"strings"

	"v6scan/internal/ids"
	"v6scan/internal/pipeline"
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

// load seeds the set from the rule file an earlier run exported, so a
// resumed daemon's next rewrite keeps those prefixes. A missing file
// is an empty set; blank lines are skipped; any other line that is not
// a CIDR prefix is an error naming the file and line.
func (b *blocklist) load() error {
	f, err := os.Open(b.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("serve: blocklist load: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		p, err := netip.ParsePrefix(text)
		if err != nil {
			return fmt.Errorf("serve: blocklist %s:%d: %w", b.path, line, err)
		}
		b.set[p] = struct{}{}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("serve: blocklist load: %w", err)
	}
	return nil
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
	err := pipeline.PublishFile(b.path, ".blocklist-*", func(w io.Writer) error {
		for _, p := range prefixes {
			if _, err := fmt.Fprintln(w, p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: blocklist export: %w", err)
	}
	return nil
}
