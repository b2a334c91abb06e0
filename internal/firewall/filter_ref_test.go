package firewall

import (
	"net/netip"
	"sort"
	"time"

	"v6scan/internal/netaddr6"
)

// refFilter is the obviously-right transcription of the 5-duplicate
// rule the flat ArtifactFilter is checked against: one map of
// per-(dst, service) counts per source /64 per day, every record kept
// in its source's slice, and the survivors sorted by time at flush.
// Its tie order among equal timestamps is unspecified; comparisons
// against it are multiset comparisons.
type refFilter struct {
	DupThreshold int
	MaxDupShare  float64

	day     time.Time // start of the buffered UTC day; zero when empty
	sources map[netip.Prefix]*daySource
	stats   FilterStats
}

type daySource struct {
	records []Record
	// dupCount counts packets per (dst, proto, port) triple.
	dupCount map[dupKey]int
}

type dupKey struct {
	dst netip.Addr
	svc Service
}

func newRefFilter() *refFilter {
	return &refFilter{
		DupThreshold: 5,
		MaxDupShare:  0.30,
		sources:      make(map[netip.Prefix]*daySource),
		stats: FilterStats{
			DroppedByService:    make(map[Service]uint64),
			DroppedSrcByService: make(map[Service]map[netip.Prefix]struct{}),
		},
	}
}

func (f *refFilter) Push(r Record) []Record {
	day := r.Time.UTC().Truncate(24 * time.Hour)
	var out []Record
	if !f.day.IsZero() && day.After(f.day) {
		out = f.flush()
	}
	f.day = day
	f.stats.PacketsIn++
	src := netaddr6.Aggregate(r.Src, netaddr6.Agg64)
	ds := f.sources[src]
	if ds == nil {
		ds = &daySource{dupCount: make(map[dupKey]int)}
		f.sources[src] = ds
	}
	ds.records = append(ds.records, r)
	ds.dupCount[dupKey{dst: r.Dst, svc: r.Service()}]++
	return out
}

func (f *refFilter) Close() []Record {
	out := f.flush()
	f.day = time.Time{}
	return out
}

func (f *refFilter) Stats() FilterStats { return f.stats }

func (f *refFilter) flush() []Record {
	var out []Record
	// Deterministic iteration: sort sources.
	srcs := make([]netip.Prefix, 0, len(f.sources))
	for p := range f.sources {
		srcs = append(srcs, p)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Addr().Compare(srcs[j].Addr()) < 0 })
	for _, p := range srcs {
		ds := f.sources[p]
		if f.isArtifact(ds) {
			f.stats.SourcesDropped++
			f.stats.PacketsDropped += uint64(len(ds.records))
			for _, r := range ds.records {
				svc := r.Service()
				f.stats.DroppedByService[svc]++
				set := f.stats.DroppedSrcByService[svc]
				if set == nil {
					set = make(map[netip.Prefix]struct{})
					f.stats.DroppedSrcByService[svc] = set
				}
				set[p] = struct{}{}
			}
			continue
		}
		out = append(out, ds.records...)
	}
	f.sources = make(map[netip.Prefix]*daySource)
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

func (f *refFilter) isArtifact(ds *daySource) bool {
	if len(ds.records) == 0 {
		return false
	}
	var dupPackets int
	for _, cnt := range ds.dupCount {
		if cnt > f.DupThreshold {
			// Packets beyond the threshold are the duplicates.
			dupPackets += cnt - f.DupThreshold
		}
	}
	return float64(dupPackets)/float64(len(ds.records)) > f.MaxDupShare
}
