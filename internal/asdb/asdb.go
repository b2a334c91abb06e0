// Package asdb models the routing-registry view the paper derives from
// BGP and WHOIS: autonomous systems with a type and country label, and
// the IPv6 prefixes allocated to or announced by them.
//
// The paper attributes every detected scan source to an origin AS and
// classifies ASes as datacenter, cloud, transit, ISP, research,
// university, or cybersecurity networks (Table 2). This package
// provides the registry and a longest-prefix-match attribution lookup;
// the synthetic census of internal/scanner populates it.
package asdb

import (
	"fmt"
	"net/netip"

	"v6scan/internal/netaddr6"
	"v6scan/internal/rtrie"
)

// Type classifies a network, mirroring the labels used in Table 2 of
// the paper.
type Type int

// Network types observed among scan origins in the paper.
const (
	TypeUnknown Type = iota
	TypeDatacenter
	TypeCloud
	TypeCloudTransit
	TypeTransit
	TypeISP
	TypeResearch
	TypeUniversity
	TypeCybersecurity
	TypeCDN
)

var typeNames = map[Type]string{
	TypeUnknown:       "Unknown",
	TypeDatacenter:    "Datacenter",
	TypeCloud:         "Cloud",
	TypeCloudTransit:  "Cloud/Transit",
	TypeTransit:       "Transit",
	TypeISP:           "ISP",
	TypeResearch:      "Research",
	TypeUniversity:    "University",
	TypeCybersecurity: "Cybersecurity",
	TypeCDN:           "CDN",
}

// String returns the Table-2 style label, e.g. "Cloud/Transit".
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// AS describes an autonomous system.
type AS struct {
	Number  int    // AS number (synthetic in simulations)
	Name    string // organization name
	Type    Type   // network classification
	Country string // ISO 3166-1 alpha-2, e.g. "CN", "US", "DE"
}

// Label returns the anonymized Table-2 style description,
// e.g. "Datacenter (CN)".
func (a AS) Label() string {
	return fmt.Sprintf("%s (%s)", a.Type, a.Country)
}

// Allocation is a prefix registered to an AS. Kind distinguishes RIR
// allocations from more-specific BGP announcements; the AS #18 case
// study hinges on a /32 RIR allocation announced as a single prefix
// whose owner sources scans from /48s spread across it.
type Allocation struct {
	Prefix netip.Prefix
	ASN    int
	Kind   AllocationKind
}

// AllocationKind tags how a prefix entered the registry.
type AllocationKind int

// Allocation kinds.
const (
	KindRIRAllocation AllocationKind = iota // RIR → LIR allocation (e.g. /32)
	KindBGPAnnounced                        // announced in BGP (e.g. /48 PI)
	KindCustomer                            // provider → customer delegation
)

// String names the allocation kind.
func (k AllocationKind) String() string {
	switch k {
	case KindRIRAllocation:
		return "rir"
	case KindBGPAnnounced:
		return "bgp"
	case KindCustomer:
		return "customer"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// DB is the registry: AS metadata plus a longest-prefix-match table of
// allocations. The zero value is empty and ready to use.
type DB struct {
	ases  map[int]AS
	table rtrie.Trie[Allocation]
}

// New returns an empty registry.
func New() *DB {
	return &DB{ases: make(map[int]AS)}
}

// AddAS registers AS metadata, replacing any previous entry with the
// same number.
func (db *DB) AddAS(a AS) {
	if db.ases == nil {
		db.ases = make(map[int]AS)
	}
	db.ases[a.Number] = a
}

// AS returns the metadata for an AS number.
func (db *DB) AS(asn int) (AS, bool) {
	a, ok := db.ases[asn]
	return a, ok
}

// Allocate registers a prefix for an AS. The AS need not be registered
// yet, but attribution of addresses under the prefix will return
// zero-valued metadata until it is.
func (db *DB) Allocate(p netip.Prefix, asn int, kind AllocationKind) error {
	if !netaddr6.IsIPv6(p.Addr()) {
		return fmt.Errorf("asdb: allocation %v is not IPv6", p)
	}
	return db.table.Insert(p.Masked(), Allocation{Prefix: p.Masked(), ASN: asn, Kind: kind})
}

// Attribute maps an address to its origin AS via longest-prefix match,
// the way the paper attributes scan sources using BGP data. The second
// return is the matched allocation.
func (db *DB) Attribute(addr netip.Addr) (AS, Allocation, bool) {
	alloc, _, ok := db.table.Lookup(addr)
	if !ok {
		return AS{}, Allocation{}, false
	}
	a := db.ases[alloc.ASN] // zero AS if metadata missing
	if a.Number == 0 {
		a.Number = alloc.ASN
	}
	return a, alloc, true
}
