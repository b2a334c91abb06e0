package netaddr6

import (
	"math/bits"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestU128RoundTrip(t *testing.T) {
	cases := []string{
		"::",
		"::1",
		"2001:db8::",
		"2001:db8:ffff:eeee:dddd:cccc:bbbb:aaaa",
		"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
		"fe80::1",
	}
	for _, s := range cases {
		a := MustAddr(s)
		got := ToU128(a).ToAddr()
		if got != a {
			t.Errorf("round trip %s: got %s", s, got)
		}
	}
}

func TestU128RoundTripQuick(t *testing.T) {
	f := func(hi, lo uint64) bool {
		u := U128{Hi: hi, Lo: lo}
		return ToU128(u.ToAddr()) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128Bit(t *testing.T) {
	a := MustAddr("8000::1") // bit 0 set, bit 127 set
	u := ToU128(a)
	if u.Bit(0) != 1 {
		t.Errorf("bit 0 = %d, want 1", u.Bit(0))
	}
	if u.Bit(127) != 1 {
		t.Errorf("bit 127 = %d, want 1", u.Bit(127))
	}
	for _, i := range []int{1, 63, 64, 126} {
		if u.Bit(i) != 0 {
			t.Errorf("bit %d = %d, want 0", i, u.Bit(i))
		}
	}
}

func TestU128SetBitInverseQuick(t *testing.T) {
	f := func(hi, lo uint64, pos uint8) bool {
		i := int(pos) % 128
		u := U128{Hi: hi, Lo: lo}
		set := u.SetBit(i, 1)
		clr := u.SetBit(i, 0)
		return set.Bit(i) == 1 && clr.Bit(i) == 0 &&
			set.SetBit(i, 0) == clr && clr.SetBit(i, 1) == set
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128MaskMatchesPrefix(t *testing.T) {
	f := func(hi, lo uint64, plenRaw uint8) bool {
		plen := int(plenRaw) % 129
		u := U128{Hi: hi, Lo: lo}
		a := u.ToAddr()
		p, err := a.Prefix(plen)
		if err != nil {
			return false
		}
		return u.Mask(plen).ToAddr() == p.Addr()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestU128Add(t *testing.T) {
	u := U128{Hi: 0, Lo: ^uint64(0)}
	got := u.Add(1)
	want := U128{Hi: 1, Lo: 0}
	if got != want {
		t.Errorf("Add carry: got %+v want %+v", got, want)
	}
	if (U128{}).Add(5) != (U128{Lo: 5}) {
		t.Error("Add basic failed")
	}
}

func TestAggregate(t *testing.T) {
	a := MustAddr("2001:db8:1:2:3:4:5:6")
	tests := []struct {
		level AggLevel
		want  string
	}{
		{Agg128, "2001:db8:1:2:3:4:5:6/128"},
		{Agg64, "2001:db8:1:2::/64"},
		{Agg48, "2001:db8:1::/48"},
		{Agg32, "2001:db8::/32"},
	}
	for _, tt := range tests {
		got := Aggregate(a, tt.level)
		if got != MustPrefix(tt.want) {
			t.Errorf("Aggregate(%s) = %s, want %s", tt.level, got, tt.want)
		}
	}
}

func TestAggregatePanicsOnIPv4(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for IPv4 address")
		}
	}()
	Aggregate(netip.MustParseAddr("192.0.2.1"), Agg64)
}

func TestAggLevelString(t *testing.T) {
	if Agg64.String() != "/64" {
		t.Errorf("got %q", Agg64.String())
	}
	if !Agg48.Valid() || AggLevel(0).Valid() || AggLevel(129).Valid() {
		t.Error("Valid() misbehaves")
	}
}

func TestIIDAndWithIID(t *testing.T) {
	a := MustAddr("2001:db8::dead:beef")
	if IID(a) != 0xdeadbeef {
		t.Errorf("IID = %x", IID(a))
	}
	b := WithIID(a, 0x1234)
	if b != MustAddr("2001:db8::1234") {
		t.Errorf("WithIID = %s", b)
	}
}

func TestHammingWeightIID(t *testing.T) {
	tests := []struct {
		addr string
		want int
	}{
		{"2001:db8::", 0},
		{"2001:db8::1", 1},
		{"2001:db8::3", 2},
		{"2001:db8::ffff:ffff:ffff:ffff", 64},
		{"ffff:ffff:ffff:ffff::", 0}, // high bits don't count
	}
	for _, tt := range tests {
		if got := HammingWeightIID(MustAddr(tt.addr)); got != tt.want {
			t.Errorf("HW(%s) = %d, want %d", tt.addr, got, tt.want)
		}
	}
}

func TestSameSlash(t *testing.T) {
	a := MustAddr("2001:db8::1:0")
	b := MustAddr("2001:db8::1:7")
	c := MustAddr("2001:db8::2:0")
	if !SameSlash(a, b, 124) {
		t.Error("a,b should share /124")
	}
	if SameSlash(a, c, 124) {
		t.Error("a,c should not share /124")
	}
	if !SameSlash(a, c, 108) {
		t.Error("a,c should share /108")
	}
	if !SameSlash(a, c, 0) {
		t.Error("everything shares /0")
	}
}

// commonPrefixLen is the length of the longest common prefix of a and
// b in bits, the oracle SameSlash is checked against.
func commonPrefixLen(a, b netip.Addr) int {
	ua, ub := ToU128(a), ToU128(b)
	if hi := ua.Hi ^ ub.Hi; hi != 0 {
		return bits.LeadingZeros64(hi)
	}
	return 64 + bits.LeadingZeros64(ua.Lo^ub.Lo)
}

// TestCommonPrefixLen pins the oracle the SameSlash property below is
// checked against.
func TestCommonPrefixLen(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"2001:db8::", "2001:db8::", 128},
		{"2001:db8::", "2001:db8::1", 127},
		{"8000::", "::", 0},
		{"2001:db8::", "2001:db9::", 31},
		{"2001:db8::", "2001:db8:0:0:8000::", 64},
	}
	for _, tt := range tests {
		if got := commonPrefixLen(MustAddr(tt.a), MustAddr(tt.b)); got != tt.want {
			t.Errorf("commonPrefixLen(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCommonPrefixConsistentWithSameSlashQuick(t *testing.T) {
	f := func(h1, l1, h2, l2 uint64, plenRaw uint8) bool {
		a := U128{h1, l1}.ToAddr()
		b := U128{h2, l2}.ToAddr()
		plen := int(plenRaw) % 129
		return SameSlash(a, b, plen) == (commonPrefixLen(a, b) >= plen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p32 := MustPrefix("2001:db8::/32")
	p48 := MustPrefix("2001:db8:5::/48")
	if !PrefixContains(p32, p48) {
		t.Error("/32 should contain /48")
	}
	if PrefixContains(p48, p32) {
		t.Error("/48 should not contain /32")
	}
	other := MustPrefix("2001:db9::/48")
	if PrefixContains(p32, other) {
		t.Error("disjoint prefixes")
	}
}

func TestRandomAddrInStaysInPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ps := range []string{"2001:db8::/32", "2001:db8:1::/48", "2001:db8:1:2::/64", "2001:db8::1/128"} {
		p := MustPrefix(ps)
		for i := 0; i < 200; i++ {
			a := RandomAddrIn(p, rng)
			if !p.Contains(a) {
				t.Fatalf("RandomAddrIn(%s) produced %s outside prefix", p, a)
			}
		}
	}
}

func TestRandomAddrInCoversSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := MustPrefix("2001:db8::/64")
	seen := map[netip.Addr]bool{}
	for i := 0; i < 100; i++ {
		seen[RandomAddrIn(p, rng)] = true
	}
	if len(seen) < 99 {
		t.Errorf("expected ~100 distinct random addresses, got %d", len(seen))
	}
}

func TestLowHammingAddrIn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := MustPrefix("2001:db8:1:2::/64")
	for i := 0; i < 500; i++ {
		a := LowHammingAddrIn(p, 6, rng)
		if !p.Contains(a) {
			t.Fatalf("address %s escaped prefix", a)
		}
		if hw := HammingWeightIID(a); hw > 6 {
			t.Fatalf("HW %d > 6 for %s", hw, a)
		}
	}
}

func TestSequentialAddrs(t *testing.T) {
	base := MustAddr("2001:db8::fffe")
	got := SequentialAddrs(base, 4, 1)
	want := []string{"2001:db8::fffe", "2001:db8::ffff", "2001:db8::1:0", "2001:db8::1:1"}
	for i, w := range want {
		if got[i] != MustAddr(w) {
			t.Errorf("seq[%d] = %s, want %s", i, got[i], w)
		}
	}
}

func TestRandomSubprefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := MustPrefix("2001:db8::/32")
	for i := 0; i < 100; i++ {
		sp := RandomSubprefix(p, 48, rng)
		if sp.Bits() != 48 || !PrefixContains(p, sp) {
			t.Fatalf("bad subprefix %s", sp)
		}
	}
}

func TestNthSubprefix(t *testing.T) {
	p := MustPrefix("2001:db8::/32")
	sp0 := NthSubprefix(p, 48, 0)
	if sp0 != MustPrefix("2001:db8::/48") {
		t.Errorf("0th = %s", sp0)
	}
	sp1 := NthSubprefix(p, 48, 1)
	if sp1 != MustPrefix("2001:db8:1::/48") {
		t.Errorf("1st = %s", sp1)
	}
	// Wraps modulo 2^16 inside /32 → /48.
	if NthSubprefix(p, 48, 1<<16) != sp0 {
		t.Error("expected wrap-around")
	}
	// Distinctness for sequential indexes.
	seen := map[netip.Prefix]bool{}
	for i := uint64(0); i < 64; i++ {
		seen[NthSubprefix(p, 48, i)] = true
	}
	if len(seen) != 64 {
		t.Errorf("expected 64 distinct subprefixes, got %d", len(seen))
	}
}

func TestNthSubprefixDeepSplit(t *testing.T) {
	// Splitting a /64 into /96s crosses the Hi/Lo boundary.
	p := MustPrefix("2001:db8:0:1::/64")
	sp := NthSubprefix(p, 96, 5)
	if sp != MustPrefix("2001:db8:0:1:0:5::/96") {
		t.Errorf("got %s", sp)
	}
}

func TestGaussianIIDAddr(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := MustAddr("2001:db8::")
	n := 2000
	sum := 0
	for i := 0; i < n; i++ {
		sum += HammingWeightIID(GaussianIIDAddr(base, rng))
	}
	mean := float64(sum) / float64(n)
	if mean < 30 || mean > 34 {
		t.Errorf("mean HW of random IIDs = %.2f, want ≈32", mean)
	}
}

func TestIsIPv6(t *testing.T) {
	if IsIPv6(netip.MustParseAddr("192.0.2.1")) {
		t.Error("IPv4 accepted")
	}
	if IsIPv6(netip.MustParseAddr("::ffff:192.0.2.1")) {
		t.Error("IPv4-mapped accepted")
	}
	if !IsIPv6(MustAddr("2001:db8::1")) {
		t.Error("IPv6 rejected")
	}
	var zero netip.Addr
	if IsIPv6(zero) {
		t.Error("zero Addr accepted")
	}
}

func TestU128CmpQuick(t *testing.T) {
	f := func(h1, l1, h2, l2 uint64) bool {
		a, b := U128{h1, l1}, U128{h2, l2}
		c := a.Cmp(b)
		return c == -b.Cmp(a) && (c == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
