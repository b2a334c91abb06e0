package netaddr6

import (
	"math/rand"
	"net/netip"
)

// This file contains deterministic address generators. They model how
// the paper's observed scan actors pick source and destination
// addresses: uniformly random within a prefix, low-Hamming-weight
// structured IIDs, small-range low-bit variation (the AS #9 pattern of
// varying only the bottom 7–9 bits), and sequential enumeration.
//
// All generators take an explicit *rand.Rand so simulations are
// reproducible under a fixed seed.

// RandomAddrIn returns a uniformly random address inside p.
func RandomAddrIn(p netip.Prefix, rng *rand.Rand) netip.Addr {
	base := ToU128(p.Masked().Addr())
	host := hostMask(p.Bits())
	r := U128{Hi: rng.Uint64(), Lo: rng.Uint64()}
	return base.Or(r.And(host)).ToAddr()
}

// LowHammingAddrIn returns an address inside p whose host bits have at
// most maxOnes set bits, placed at random positions. This reproduces the
// "structured IID" populations the paper observes for DNS-exposed CDN
// machines and for hitlist-derived scan targets (Figure 7: low Hamming
// weight).
func LowHammingAddrIn(p netip.Prefix, maxOnes int, rng *rand.Rand) netip.Addr {
	base := ToU128(p.Masked().Addr())
	plen := p.Bits()
	hostBits := 128 - plen
	if hostBits <= 0 {
		return p.Addr()
	}
	ones := 0
	if maxOnes > 0 {
		ones = rng.Intn(maxOnes + 1)
	}
	if ones > hostBits {
		ones = hostBits
	}
	u := base
	for i := 0; i < ones; i++ {
		// Bias positions toward the least-significant bits: real
		// structured IIDs are small integers (::1, ::25, ::1:2).
		span := hostBits
		if span > 16 && rng.Intn(4) != 0 {
			span = 16
		}
		pos := 128 - 1 - rng.Intn(span)
		u = u.SetBit(pos, 1)
	}
	return u.ToAddr()
}

// SequentialAddrs returns n addresses starting at base, each step apart.
// Scan actors enumerating nearby addresses around a known (in-DNS)
// target use step 1.
func SequentialAddrs(base netip.Addr, n int, step uint64) []netip.Addr {
	out := make([]netip.Addr, 0, n)
	u := ToU128(base)
	for i := 0; i < n; i++ {
		out = append(out, u.ToAddr())
		u = u.Add(step)
	}
	return out
}

// RandomSubprefix returns a random /sub prefix contained in p.
// It panics if sub < p.Bits(). Used to model cloud providers handing
// out more-specific allocations (AS #6 hands out prefixes more specific
// than /96) and the AS #18 actor spreading over /48s within a /32.
func RandomSubprefix(p netip.Prefix, sub int, rng *rand.Rand) netip.Prefix {
	if sub < p.Bits() {
		panic("netaddr6: RandomSubprefix: sub shorter than parent prefix")
	}
	if sub > 128 {
		sub = 128
	}
	a := RandomAddrIn(p, rng)
	out, err := a.Prefix(sub)
	if err != nil {
		panic("netaddr6: RandomSubprefix: " + err.Error())
	}
	return out
}

// NthSubprefix returns the i-th /sub prefix inside p, in address order.
// It panics if sub < p.Bits(). The index wraps modulo the number of
// available subprefixes (capped at 2^63 to stay in uint64 arithmetic),
// making it convenient for deterministic round-robin assignment.
func NthSubprefix(p netip.Prefix, sub int, i uint64) netip.Prefix {
	if sub < p.Bits() {
		panic("netaddr6: NthSubprefix: sub shorter than parent prefix")
	}
	if sub > 128 {
		sub = 128
	}
	span := sub - p.Bits()
	if span > 63 {
		span = 63
	}
	if span < 64 {
		i %= uint64(1) << span
	}
	base := ToU128(p.Masked().Addr())
	// Shift the index into position: the subprefix index occupies bits
	// [p.Bits(), sub) of the address.
	shift := 128 - sub
	var u U128
	if shift >= 64 {
		u = U128{Hi: i << (shift - 64)}
	} else {
		u = U128{Hi: i >> (64 - shift), Lo: i << shift}
	}
	out, err := base.Or(u).ToAddr().Prefix(sub)
	if err != nil {
		panic("netaddr6: NthSubprefix: " + err.Error())
	}
	return out
}

// GaussianIIDAddr returns an address in the /64 of base whose IID bits
// are independently random — producing the binomial (visually Gaussian)
// Hamming-weight distribution the paper observes for the Dec 24, 2021
// MAWI peak scanner.
func GaussianIIDAddr(base netip.Addr, rng *rand.Rand) netip.Addr {
	return WithIID(base, rng.Uint64())
}
