// Package telescope models the paper's vantage point: a CDN whose
// machines log unsolicited IPv6 traffic. Each machine carries a
// DNS-exposed ("client-facing") address — returned in AAAA answers to
// clients and therefore discoverable by scanners harvesting DNS or
// hitlists — and a non-exposed address that never appears in DNS.
// The two addresses of a machine are close in address space, usually
// within the same /123, mirroring the 160,000-address-pair analysis of
// Section 3.3 that the paper uses to infer how scanners find targets.
//
// The telescope registers its deployment ASes and prefixes into an
// asdb.DB so that detection-side AS attribution treats CDN space like
// any other network.
package telescope

import (
	"fmt"
	"math/rand"
	"net/netip"

	"v6scan/internal/asdb"
	"v6scan/internal/netaddr6"
)

// Config sizes the synthetic telescope. The paper's deployment is
// ≈230,000 machines in >700 ASes; simulations default to a scaled-down
// deployment with the same structure.
type Config struct {
	// Machines is the number of CDN machines (each contributes one
	// exposed and one hidden address).
	Machines int
	// ASes is the number of deployment networks machines spread over.
	ASes int
	// ASNBase is the first AS number used for deployment networks.
	ASNBase int
	// BasePrefix is the address space deployment allocations are carved
	// from; each AS receives one /32.
	BasePrefix netip.Prefix
	// PairWithin123Share is the fraction of machines whose hidden
	// address lies within the same /123 as the exposed one (the paper:
	// "often within a /123"); the remainder fall within the same /112.
	PairWithin123Share float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a laptop-scale telescope preserving the
// paper's structure: machines spread unevenly over many ASes.
func DefaultConfig() Config {
	return Config{
		Machines:           4000,
		ASes:               70,
		ASNBase:            64512,
		BasePrefix:         netaddr6.MustPrefix("2a00::/12"),
		PairWithin123Share: 0.85,
		Seed:               1,
	}
}

// Machine is one CDN machine with its address pair.
type Machine struct {
	ID      int
	ASN     int
	Exposed netip.Addr // client-facing, present in DNS
	Hidden  netip.Addr // never returned in DNS
}

// Telescope is the built vantage point.
type Telescope struct {
	cfg      Config
	machines []Machine
	exposed  []netip.Addr
	hidden   []netip.Addr
	inDNS    map[netip.Addr]bool
}

// New builds a telescope and registers its deployment ASes and
// allocations into db (pass nil to skip registration).
func New(cfg Config, db *asdb.DB) (*Telescope, error) {
	if cfg.Machines <= 0 || cfg.ASes <= 0 {
		return nil, fmt.Errorf("telescope: need positive Machines and ASes, got %d/%d", cfg.Machines, cfg.ASes)
	}
	if cfg.ASes > cfg.Machines {
		return nil, fmt.Errorf("telescope: more ASes (%d) than machines (%d)", cfg.ASes, cfg.Machines)
	}
	if !cfg.BasePrefix.IsValid() {
		cfg.BasePrefix = DefaultConfig().BasePrefix
	}
	if cfg.PairWithin123Share == 0 {
		cfg.PairWithin123Share = DefaultConfig().PairWithin123Share
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	t := &Telescope{
		cfg:      cfg,
		machines: make([]Machine, 0, cfg.Machines),
		exposed:  make([]netip.Addr, 0, cfg.Machines),
		hidden:   make([]netip.Addr, 0, cfg.Machines),
		inDNS:    make(map[netip.Addr]bool, 2*cfg.Machines),
	}

	// Deployment sizes follow a skewed (Zipf-like) distribution: a few
	// large ASes host most machines, like real CDN deployments.
	weights := make([]float64, cfg.ASes)
	var wSum float64
	for i := range weights {
		weights[i] = 1 / float64(i+1)
		wSum += weights[i]
	}
	counts := make([]int, cfg.ASes)
	assigned := 0
	for i := range counts {
		counts[i] = int(float64(cfg.Machines) * weights[i] / wSum)
		if counts[i] == 0 {
			counts[i] = 1
		}
		assigned += counts[i]
	}
	// Distribute the remainder (or trim overshoot) on the largest AS.
	counts[0] += cfg.Machines - assigned
	if counts[0] < 1 {
		return nil, fmt.Errorf("telescope: config produces empty largest AS")
	}

	id := 0
	for asIdx := 0; asIdx < cfg.ASes; asIdx++ {
		asn := cfg.ASNBase + asIdx
		alloc := netaddr6.NthSubprefix(cfg.BasePrefix, 32, uint64(asIdx))
		if db != nil {
			db.AddAS(asdb.AS{
				Number:  asn,
				Name:    fmt.Sprintf("cdn-deploy-%d", asIdx),
				Type:    asdb.TypeCDN,
				Country: deployCountry(asIdx),
			})
			if err := db.Allocate(alloc, asn, asdb.KindRIRAllocation); err != nil {
				return nil, fmt.Errorf("telescope: %w", err)
			}
		}
		for j := 0; j < counts[asIdx]; j++ {
			// Each machine sits in its own /64 within one of the AS's
			// /48 clusters.
			cluster := netaddr6.NthSubprefix(alloc, 48, uint64(j/256))
			mnet := netaddr6.NthSubprefix(cluster, 64, uint64(j%256))
			m := buildMachine(id, asn, mnet, cfg.PairWithin123Share, rng)
			t.addMachine(m)
			id++
		}
	}
	return t, nil
}

// buildMachine synthesizes the address pair for one machine.
func buildMachine(id, asn int, mnet netip.Prefix, within123 float64, rng *rand.Rand) Machine {
	// Exposed addresses are structured (low Hamming weight), as CDN
	// infrastructure addresses tend to be.
	exposed := netaddr6.LowHammingAddrIn(mnet, 4, rng)
	var hidden netip.Addr
	for {
		iid := netaddr6.IID(exposed)
		if rng.Float64() < within123 {
			// Same /123: flip only low 5 bits.
			delta := uint64(1 + rng.Intn(31))
			hidden = netaddr6.WithIID(exposed, iid^delta)
		} else {
			// Same /112: differ somewhere in the low 16 bits.
			delta := uint64(1 + rng.Intn(0xFFFF))
			hidden = netaddr6.WithIID(exposed, iid^delta)
		}
		if hidden != exposed {
			break
		}
	}
	return Machine{ID: id, ASN: asn, Exposed: exposed, Hidden: hidden}
}

func (t *Telescope) addMachine(m Machine) {
	t.machines = append(t.machines, m)
	t.exposed = append(t.exposed, m.Exposed)
	t.hidden = append(t.hidden, m.Hidden)
	t.inDNS[m.Exposed] = true
	t.inDNS[m.Hidden] = false
}

// deployCountry spreads deployments over a fixed country list.
func deployCountry(i int) string {
	countries := []string{"US", "DE", "JP", "BR", "IN", "GB", "FR", "NL", "AU", "SG"}
	return countries[i%len(countries)]
}

// Machines returns all machines (callers must not mutate).
func (t *Telescope) Machines() []Machine { return t.machines }

// NumMachines returns the machine count.
func (t *Telescope) NumMachines() int { return len(t.machines) }

// ExposedAddrs returns every DNS-exposed address; this doubles as the
// ground truth behind the synthetic "IPv6 hitlist" of the MAWI
// cross-check.
func (t *Telescope) ExposedAddrs() []netip.Addr { return t.exposed }

// HiddenAddrs returns every non-DNS address.
func (t *Telescope) HiddenAddrs() []netip.Addr { return t.hidden }

// InDNS reports whether addr is a telescope address exposed via DNS.
// Non-telescope addresses return false.
func (t *Telescope) InDNS(addr netip.Addr) bool { return t.inDNS[addr] }
