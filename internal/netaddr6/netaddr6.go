// Package netaddr6 provides IPv6 address manipulation helpers used across
// the v6scan library: 128-bit integer views of addresses, prefix
// aggregation to the levels the paper analyzes (/32, /48, /64, /128),
// interface-identifier (IID) extraction and synthesis, Hamming-weight
// computation, and "nearby" predicates used for target-provenance
// analysis.
//
// All functions operate on netip.Addr and netip.Prefix from the standard
// library. IPv4 and IPv4-mapped addresses are rejected or return zero
// values; this library is deliberately IPv6-only, mirroring the paper's
// scope.
package netaddr6

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// U128 is an unsigned 128-bit integer view of an IPv6 address. It exists
// because netip.Addr does not expose arithmetic, and the radix trie,
// address generators, and Hamming analyses all need cheap bit
// manipulation.
type U128 struct {
	Hi uint64 // most-significant 64 bits (network part for /64s)
	Lo uint64 // least-significant 64 bits (the IID for /64-addressed hosts)
}

// ToU128 converts an IPv6 address to its 128-bit integer view.
// The address must be a valid IPv6 address (Is6 or 4-in-6 excluded);
// callers that may hold IPv4 addresses should check IsIPv6 first.
func ToU128(a netip.Addr) U128 {
	b := a.As16()
	return U128{
		Hi: binary.BigEndian.Uint64(b[0:8]),
		Lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

// ToAddr converts a 128-bit integer view back to a netip.Addr.
func (u U128) ToAddr() netip.Addr {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], u.Hi)
	binary.BigEndian.PutUint64(b[8:16], u.Lo)
	return netip.AddrFrom16(b)
}

// And returns the bitwise and of two 128-bit values.
func (u U128) And(v U128) U128 {
	return U128{Hi: u.Hi & v.Hi, Lo: u.Lo & v.Lo}
}

// Or returns the bitwise or of two 128-bit values.
func (u U128) Or(v U128) U128 {
	return U128{Hi: u.Hi | v.Hi, Lo: u.Lo | v.Lo}
}

// Add returns u+d with wrap-around, treating u as a big-endian 128-bit
// unsigned integer. Useful for sequential target generation.
func (u U128) Add(d uint64) U128 {
	lo, carry := bits.Add64(u.Lo, d, 0)
	return U128{Hi: u.Hi + carry, Lo: lo}
}

// Bit returns the bit at position i, where i=0 is the most-significant
// bit of the address (the leftmost bit of the first byte). This matches
// prefix-length semantics: bits [0, plen) form the prefix.
func (u U128) Bit(i int) int {
	if i < 64 {
		return int(u.Hi >> (63 - i) & 1)
	}
	return int(u.Lo >> (127 - i) & 1)
}

// SetBit returns a copy of u with bit i (MSB-first indexing) set to v
// (0 or 1).
func (u U128) SetBit(i, v int) U128 {
	if i < 64 {
		mask := uint64(1) << (63 - i)
		if v == 0 {
			u.Hi &^= mask
		} else {
			u.Hi |= mask
		}
		return u
	}
	mask := uint64(1) << (127 - i)
	if v == 0 {
		u.Lo &^= mask
	} else {
		u.Lo |= mask
	}
	return u
}

// Mask returns u with all bits beyond plen cleared (network mask).
func (u U128) Mask(plen int) U128 {
	switch {
	case plen <= 0:
		return U128{}
	case plen >= 128:
		return u
	case plen <= 64:
		return U128{Hi: u.Hi &^ (^uint64(0) >> plen)}
	default:
		return U128{Hi: u.Hi, Lo: u.Lo &^ (^uint64(0) >> (plen - 64))}
	}
}

// Cmp compares two 128-bit values, returning -1, 0, or +1.
func (u U128) Cmp(v U128) int {
	switch {
	case u.Hi < v.Hi:
		return -1
	case u.Hi > v.Hi:
		return 1
	case u.Lo < v.Lo:
		return -1
	case u.Lo > v.Lo:
		return 1
	default:
		return 0
	}
}

// String formats the value as the IPv6 address it encodes.
func (u U128) String() string { return u.ToAddr().String() }

// IsIPv6 reports whether a is a plain IPv6 address (not IPv4, not
// IPv4-mapped). The zero Addr returns false.
func IsIPv6(a netip.Addr) bool {
	return a.Is6() && !a.Is4In6()
}

// AggLevel is a source-aggregation level: the prefix length at which
// packets are grouped before scan detection runs. The paper analyzes
// /128 (no aggregation), /64, /48, and case-study /32.
type AggLevel int

// Aggregation levels studied in the paper.
const (
	Agg128 AggLevel = 128 // treat each source address individually
	Agg64  AggLevel = 64  // typical end-site subnet
	Agg48  AggLevel = 48  // smallest globally routable IPv6 entity
	Agg32  AggLevel = 32  // typical RIR allocation to an entire ISP
)

// Levels returns the standard aggregation levels in the order the paper
// tabulates them (most to least specific).
func Levels() []AggLevel { return []AggLevel{Agg128, Agg64, Agg48} }

// Valid reports whether l is a meaningful IPv6 aggregation level.
func (l AggLevel) Valid() bool { return l > 0 && l <= 128 }

// String returns e.g. "/64".
func (l AggLevel) String() string { return fmt.Sprintf("/%d", int(l)) }

// Aggregate masks addr to the aggregation level, returning the canonical
// prefix used as a source key. Aggregate panics if addr is not IPv6;
// telescope inputs are validated at ingest.
func Aggregate(addr netip.Addr, level AggLevel) netip.Prefix {
	if !IsIPv6(addr) {
		panic("netaddr6: Aggregate on non-IPv6 address " + addr.String())
	}
	p, err := addr.Prefix(int(level))
	if err != nil {
		panic("netaddr6: invalid aggregation level " + level.String())
	}
	return p
}

// IID returns the interface identifier: the low 64 bits of an IPv6
// address. The paper uses the IID's Hamming weight as a randomness
// indicator for scan targets.
func IID(a netip.Addr) uint64 {
	return ToU128(a).Lo
}

// WithIID returns the address formed by the /64 network of a and the
// given interface identifier.
func WithIID(a netip.Addr, iid uint64) netip.Addr {
	u := ToU128(a)
	u.Lo = iid
	return u.ToAddr()
}

// HammingWeightIID returns the number of 1-bits in the IID (low 64 bits)
// of the address. Low values indicate structured, non-random addresses
// (e.g. ::1, ::53); random IIDs concentrate near 32 (binomial n=64,
// p=1/2).
func HammingWeightIID(a netip.Addr) int {
	return bits.OnesCount64(IID(a))
}

// SameSlash reports whether a and b share their first plen bits, i.e.
// fall into the same /plen. It is the "nearby" predicate of Section 3.3
// (used there with plen of 124, 120, 116, 112).
func SameSlash(a, b netip.Addr, plen int) bool {
	if plen <= 0 {
		return true
	}
	if plen > 128 {
		plen = 128
	}
	ua, ub := ToU128(a), ToU128(b)
	return ua.Mask(plen) == ub.Mask(plen)
}

// MustAddr parses an IPv6 address or panics; intended for tests, tables
// and package-level constants.
func MustAddr(s string) netip.Addr {
	a := netip.MustParseAddr(s)
	if !IsIPv6(a) {
		panic("netaddr6: not IPv6: " + s)
	}
	return a
}

// MustPrefix parses an IPv6 prefix or panics. The prefix is returned in
// masked (canonical) form.
func MustPrefix(s string) netip.Prefix {
	p := netip.MustParsePrefix(s)
	if !IsIPv6(p.Addr()) {
		panic("netaddr6: not IPv6: " + s)
	}
	return p.Masked()
}

// PrefixContains reports whether outer contains the entire inner prefix.
func PrefixContains(outer, inner netip.Prefix) bool {
	return outer.Bits() <= inner.Bits() && outer.Contains(inner.Addr())
}

func hostMask(plen int) U128 {
	switch {
	case plen <= 0:
		return U128{Hi: ^uint64(0), Lo: ^uint64(0)}
	case plen >= 128:
		return U128{}
	case plen < 64:
		return U128{Hi: ^uint64(0) >> plen, Lo: ^uint64(0)}
	case plen == 64:
		return U128{Lo: ^uint64(0)}
	default:
		return U128{Lo: ^uint64(0) >> (plen - 64)}
	}
}
