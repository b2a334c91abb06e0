package core

import (
	"testing"

	"v6scan/internal/checkpoint"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/u128idx"
)

// TestEncodeU128SetNoAllocs pins the address-set encoder at zero
// allocations once the threaded scratch buffer and encoder are warm:
// the per-section fresh sorted slice it used to allocate is exactly the
// regression this guards against.
func TestEncodeU128SetNoAllocs(t *testing.T) {
	var spilled u128idx.Set
	for i := 0; i < 300; i++ {
		spilled.Add(netaddr6.U128{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i)})
	}
	var small u128idx.Set
	for i := 0; i < 5; i++ {
		small.Add(netaddr6.U128{Lo: uint64(i)})
	}
	var inline u128idx.Set // empty: single-value fast path
	first := netaddr6.U128{Hi: 1, Lo: 2}

	var e checkpoint.Enc
	var scratch []netaddr6.U128
	var keyCounts []uint32
	encode := func() {
		e.B = e.B[:0]
		encodeU128Set(&e, &scratch, &keyCounts, &spilled, first)
		encodeU128Set(&e, &scratch, &keyCounts, &small, first)
		encodeU128Set(&e, &scratch, &keyCounts, &inline, first)
	}
	encode() // warm the scratch buffer and encoder capacity
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Fatalf("encodeU128Set allocated %.0f times per warm encode, want 0", allocs)
	}
}

// TestEncodeSessionNoAllocs pins the session encoder, detectorBody.Entry,
// at zero allocations once its sort buffers and the encoder are warm:
// materialized address sets and port, week and length counters past
// the inline cutoff, next to a session that stays inline throughout.
func TestEncodeSessionNoAllocs(t *testing.T) {
	var spilled session
	spilled.firstDst, spilled.firstSrc = netaddr6.U128{Lo: 1}, netaddr6.U128{Lo: 2}
	for i := range uint64(40) {
		spilled.packets++
		spilled.addDst(netaddr6.U128{Hi: i * 0x9e3779b97f4a7c15, Lo: i})
		spilled.addSrc(netaddr6.U128{Lo: i % 7})
		spilled.ports.add(uint32(i*1637), 1)
		spilled.weekCounts().add(weekKey(int32(i%9)-4), 1)
		spilled.lens.add(uint32(40+i), 1)
	}
	var inline session
	inline.packets = 3
	inline.ports.add(svcKey(firewall.Service{Proto: layers.ProtoTCP, Port: 22}), 3)
	inline.lens.add(60, 3)
	if spilled.ports.used == 0 || spilled.weeks.used == 0 || spilled.lens.used == 0 {
		t.Fatal("the spilled session's counters did not spill")
	}

	var b detectorBody
	var e checkpoint.Enc
	encode := func() {
		e.B = e.B[:0]
		b.Entry(&e, liveSession{&spilled, 7})
		b.Entry(&e, liveSession{&inline, 9})
	}
	encode() // warm the sort buffers and encoder capacity
	if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
		t.Fatalf("encoding two sessions allocated %.0f times, want 0", allocs)
	}
}
