package u128idx

import (
	"testing"
	"time"

	"v6scan/internal/netaddr6"
)

const benchKeys = 1 << 14

func benchKeySet() []netaddr6.U128 {
	keys := make([]netaddr6.U128, benchKeys)
	for i := range keys {
		// splitmix-style spread so the keys behave like masked prefixes.
		z := uint64(i)*0x9e3779b97f4a7c15 + 1
		keys[i] = netaddr6.U128{Hi: z ^ z>>31, Lo: uint64(i) << 16}
	}
	return keys
}

// BenchmarkU128IdxInsert measures bulk insert into a reused (Reset)
// table, the detector's session-create path.
func BenchmarkU128IdxInsert(b *testing.B) {
	keys := benchKeySet()
	ix := NewIndex(benchKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reset()
		for j, k := range keys {
			p, _ := ix.Ref(k)
			*p = uint32(j)
		}
	}
}

// BenchmarkMapU128Insert is the builtin-map baseline for Insert.
func BenchmarkMapU128Insert(b *testing.B) {
	keys := benchKeySet()
	m := make(map[netaddr6.U128]uint32, benchKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(m)
		for j, k := range keys {
			m[k] = uint32(j)
		}
	}
}

// BenchmarkU128IdxLookup measures hit lookups on a full table, the
// detector's session-update path.
func BenchmarkU128IdxLookup(b *testing.B) {
	keys := benchKeySet()
	ix := NewIndex(benchKeys)
	for j, k := range keys {
		ix.Put(k, uint32(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			v, _ := ix.Get(k)
			sink += v
		}
	}
	_ = sink
}

// BenchmarkMapU128Lookup is the builtin-map baseline for Lookup.
func BenchmarkMapU128Lookup(b *testing.B) {
	keys := benchKeySet()
	m := make(map[netaddr6.U128]uint32, benchKeys)
	for j, k := range keys {
		m[k] = uint32(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			sink += m[k]
		}
	}
	_ = sink
}

// BenchmarkU128IdxChurn measures steady-state delete+insert over a
// fixed working set — the session timeout/recycle pattern, which is
// where tombstone handling earns or loses its keep.
func BenchmarkU128IdxChurn(b *testing.B) {
	keys := benchKeySet()
	ix := NewIndex(benchKeys)
	for j, k := range keys {
		ix.Put(k, uint32(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			ix.Delete(k)
			ix.Put(k, uint32(j))
		}
	}
}

// BenchmarkMapU128Churn is the builtin-map baseline for Churn.
func BenchmarkMapU128Churn(b *testing.B) {
	keys := benchKeySet()
	m := make(map[netaddr6.U128]uint32, benchKeys)
	for j, k := range keys {
		m[k] = uint32(j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			delete(m, k)
			m[k] = uint32(j)
		}
	}
}

// BenchmarkU128IdxTableExpire measures the engines' minute sweep on a
// steady-state churn table: each op is one stream minute in which
// about 830 short-lived keys arrive and a tenth of the resident ones
// are touched again, then an Expire one hour behind the clock closes
// (and releases) what went idle. About 55k handles stay resident.
// ns/expire is the sweep alone. Once the table has reached its working
// set an op allocates nothing: the index's occasional tombstone purge
// rebuilds in place, so B/op reads 0 as well as allocs/op.
func BenchmarkU128IdxTableExpire(b *testing.B) {
	const (
		perMinute = 830
		timeout   = int64(time.Hour)
		minute    = int64(time.Minute)
	)
	var (
		tab  Table[uint64]
		live []uint64 // arrival sequence numbers, oldest first
		seq  uint64
		now  = int64(1_700_000_000) * int64(time.Second)
	)
	key := func(seq uint64) netaddr6.U128 {
		z := seq * 0x9e3779b97f4a7c15
		return netaddr6.U128{Hi: z ^ z>>29, Lo: seq}
	}
	minuteOf := func() {
		now += minute
		for i := 0; i < perMinute; i++ {
			seq++
			tab.Ref(key(seq), now+int64(i)*(minute/perMinute))
			live = append(live, seq)
		}
		// Revisit every tenth of the keys that arrived in the last hour.
		for i := len(live) - 1; i >= 0 && i >= len(live)-60*perMinute; i -= 10 {
			if h, ok := tab.Get(key(live[i])); ok {
				tab.Touch(h, now)
			}
		}
	}
	release := func(h uint32) { tab.Release(h) }
	sweep := func() {
		tab.Expire(Cutoff(now, timeout), release)
		if len(live) > 2*60*perMinute {
			live = append(live[:0], live[len(live)-60*perMinute:]...)
		}
	}
	// Four hours reach the working set: a touched key outlives its
	// hour of arrivals by up to another hour.
	for range 240 {
		minuteOf()
		sweep()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var spent time.Duration
	for i := 0; i < b.N; i++ {
		minuteOf()
		start := time.Now()
		sweep()
		spent += time.Since(start)
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/expire")
	b.ReportMetric(float64(tab.Len()), "handles")
}
