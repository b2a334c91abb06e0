package rtrie

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"v6scan/internal/netaddr6"
)

func mustP(s string) netip.Prefix { return netaddr6.MustPrefix(s) }
func mustA(s string) netip.Addr   { return netaddr6.MustAddr(s) }

func TestEmptyTrie(t *testing.T) {
	var tr Trie[int]
	for _, a := range []string{"2001:db8::1", "::", "ffff::1"} {
		if _, _, ok := tr.Lookup(mustA(a)); ok {
			t.Errorf("lookup of %s on empty trie matched", a)
		}
	}
}

func TestInsertLookupLongestMatch(t *testing.T) {
	var tr Trie[string]
	for p, v := range map[string]string{
		"2001:db8::/32":     "allocation",
		"2001:db8:5::/48":   "site",
		"2001:db8:5:1::/64": "subnet",
	} {
		if err := tr.Insert(mustP(p), v); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		addr string
		want string
		plen int
	}{
		{"2001:db8:5:1::42", "subnet", 64},
		{"2001:db8:5:2::42", "site", 48},
		{"2001:db8:6::42", "allocation", 32},
	}
	for _, tt := range tests {
		v, p, ok := tr.Lookup(mustA(tt.addr))
		if !ok || v != tt.want || p.Bits() != tt.plen {
			t.Errorf("Lookup(%s) = %v,%v,%v; want %s at /%d", tt.addr, v, p, ok, tt.want, tt.plen)
		}
	}
	if _, _, ok := tr.Lookup(mustA("2001:db9::1")); ok {
		t.Error("address outside all prefixes matched")
	}
}

func TestInsertReplace(t *testing.T) {
	var tr Trie[int]
	p := mustP("2001:db8::/48")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if v, got, ok := tr.Lookup(mustA("2001:db8::7")); !ok || v != 2 || got != p {
		t.Errorf("Lookup = %d,%v,%v; want the replacing value 2 at %v", v, got, ok, p)
	}
}

func TestInsertRejectsIPv4(t *testing.T) {
	var tr Trie[int]
	if err := tr.Insert(netip.MustParsePrefix("10.0.0.0/8"), 1); err == nil {
		t.Error("IPv4 prefix accepted")
	}
}

func TestDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(mustP("::/0"), "default")
	tr.Insert(mustP("2001:db8::/32"), "doc")
	if v, _, ok := tr.Lookup(mustA("fe80::1")); !ok || v != "default" {
		t.Errorf("default route: %v %v", v, ok)
	}
	if v, _, ok := tr.Lookup(mustA("2001:db8::1")); !ok || v != "doc" {
		t.Errorf("more specific beats default: %v %v", v, ok)
	}
}

func TestHostRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustP("2001:db8::1/128"), 7)
	if v, p, ok := tr.Lookup(mustA("2001:db8::1")); !ok || v != 7 || p.Bits() != 128 {
		t.Errorf("host route lookup: %v %v %v", v, p, ok)
	}
	if _, _, ok := tr.Lookup(mustA("2001:db8::2")); ok {
		t.Error("host route over-matched")
	}
}

func TestLookupMatchesLinearScanQuick(t *testing.T) {
	// Property: trie longest-prefix match agrees with a brute-force scan
	// over the inserted prefixes.
	rng := rand.New(rand.NewSource(42))
	var tr Trie[int]
	var prefixes []netip.Prefix
	base := mustP("2001:db8::/32")
	for i := 0; i < 300; i++ {
		plen := 32 + rng.Intn(97) // 32..128
		p := netaddr6.RandomSubprefix(base, plen, rng)
		if err := tr.Insert(p, i); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		addr := netaddr6.RandomAddrIn(base, r)
		// Occasionally test near prefix boundaries.
		if r.Intn(2) == 0 {
			p := prefixes[r.Intn(len(prefixes))]
			addr = netaddr6.RandomAddrIn(p, r)
		}
		bestLen := -1
		for _, p := range prefixes {
			if p.Contains(addr) && p.Bits() > bestLen {
				bestLen = p.Bits()
			}
		}
		_, got, ok := tr.Lookup(addr)
		if bestLen < 0 {
			return !ok
		}
		return ok && got.Bits() == bestLen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGetVsLookupDistinction: Lookup is a longest match, not an exact
// prefix match. With only a /32 stored, an address inside a /48 of it
// matches the /32, and reports the /32 as the matched prefix.
func TestGetVsLookupDistinction(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mustP("2001:db8::/32"), 1)
	if v, p, ok := tr.Lookup(mustA("2001:db8::1")); !ok || v != 1 || p != mustP("2001:db8::/32") {
		t.Errorf("Lookup inside a /48 of the /32 = %v,%v,%v; want 1 at 2001:db8::/32", v, p, ok)
	}
	if _, _, ok := tr.Lookup(mustA("2001:db9::1")); ok {
		t.Error("Lookup matched outside the stored /32")
	}
}
