// Package artifacts models the non-scan background traffic the CDN
// telescope logs alongside real scans: misconfigured eyeball clients
// whose repeated failing connection attempts mimic scanning by touching
// telescope addresses day after day. Appendix A.1 identifies the two
// dominant artifact families — SMTP servers falling back to AAAA
// records (TCP/25) and IPsec peers re-sending ISAKMP handshakes
// (UDP/500) — and removes them with the 5-duplicate pre-filter before
// scan detection. This package generates that population so the filter
// has something realistic to remove, plus a low-rate benign population
// that survives filtering without ever qualifying as a scan.
package artifacts

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"v6scan/internal/asdb"
	"v6scan/internal/firewall"
	"v6scan/internal/layers"
	"v6scan/internal/netaddr6"
	"v6scan/internal/telescope"
)

// EyeballSpace is the address space artifact clients live in — eyeball
// ISP allocations, disjoint from both the telescope's deployment space
// and the scan-actor space so the detection tests can assert that no
// artifact source ever surfaces as a scan.
var EyeballSpace = netaddr6.MustPrefix("2600::/12")

// ASNBase numbers the eyeball ISP ASes registered by New. The range
// sits between the telescope deployment ASNs (64512+) and the scan
// actor ASNs (65000+).
const ASNBase = 64900

// Config sizes the artifact population.
type Config struct {
	// SMTPClients is the number of mail servers retrying delivery to
	// AAAA records of CDN machines (TCP/25, the top filtered service).
	SMTPClients int
	// IPsecClients is the number of peers re-sending ISAKMP handshakes
	// (UDP/500, the second filtered service). Every third one also
	// retries NAT-T on UDP/4500.
	IPsecClients int
	// BenignClients is the number of low-rate sources whose traffic
	// passes the 5-duplicate filter (too few packets per destination)
	// yet never reaches the scan threshold.
	BenignClients int
	// SMTPRetries and IPsecRetries are packets per client per day,
	// concentrated on the client's fixed targets so the k-duplicate
	// share is far above the filter's 30% bar.
	SMTPRetries  int
	IPsecRetries int
	// ASes is the number of eyeball ISP ASes the clients spread over.
	ASes int
	// Seed drives all randomness.
	Seed int64
}

// DefaultConfig returns a population large enough that artifact traffic
// visibly dominates the filter's drop statistics at simulation scale.
func DefaultConfig() Config {
	return Config{
		SMTPClients:   100,
		IPsecClients:  70,
		BenignClients: 50,
		SMTPRetries:   36,
		IPsecRetries:  30,
		ASes:          12,
		Seed:          5,
	}
}

// client is one artifact source: a fixed /64 with a fixed target set.
type client struct {
	src  netip.Addr
	dsts []netip.Addr
	svcs []firewall.Service // cycled per burst; len 1 for pure clients
	// perDay packets are spread over a short window starting at offset
	// into the day.
	perDay int
	offset time.Duration
	space  time.Duration
	length uint16
	// benign clients spread packets across dsts so no (dst, service)
	// pair exceeds the duplicate threshold.
	benign bool
}

// Generator emits the artifact population's records day by day.
type Generator struct {
	cfg     Config
	clients []client
}

// New builds the population against a telescope, registering the
// eyeball ASes and allocations in db (pass nil to skip registration).
func New(cfg Config, tele *telescope.Telescope, db *asdb.DB) *Generator {
	def := DefaultConfig()
	if cfg.SMTPRetries <= 0 {
		cfg.SMTPRetries = def.SMTPRetries
	}
	if cfg.IPsecRetries <= 0 {
		cfg.IPsecRetries = def.IPsecRetries
	}
	if cfg.ASes <= 0 {
		cfg.ASes = def.ASes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	allocs := make([]netip.Prefix, cfg.ASes)
	for i := range allocs {
		allocs[i] = netaddr6.NthSubprefix(EyeballSpace, 32, uint64(i))
		if db != nil {
			asn := ASNBase + i
			db.AddAS(asdb.AS{
				Number:  asn,
				Name:    fmt.Sprintf("eyeball-isp-%d", i),
				Type:    asdb.TypeISP,
				Country: eyeballCountry(i),
			})
			if err := db.Allocate(allocs[i], asn, asdb.KindRIRAllocation); err != nil {
				panic("artifacts: eyeball allocation: " + err.Error())
			}
		}
	}

	exposed := tele.ExposedAddrs()
	g := &Generator{cfg: cfg}
	// Each client occupies its own /64 (the filter's aggregation unit)
	// carved from its AS's /32, with a stable pseudo-random IID.
	srcFor := func(i int) netip.Addr {
		alloc := allocs[i%len(allocs)]
		p48 := netaddr6.NthSubprefix(alloc, 48, uint64(i/len(allocs)))
		p64 := netaddr6.NthSubprefix(p48, 64, uint64(i%7))
		return netaddr6.WithIID(p64.Addr(), 1+rng.Uint64()%0xFFFF)
	}
	pick := func(n int) []netip.Addr {
		out := make([]netip.Addr, 0, n)
		for len(out) < n && len(exposed) > 0 {
			out = append(out, exposed[rng.Intn(len(exposed))])
		}
		return out
	}

	id := 0
	for i := 0; i < cfg.SMTPClients; i++ {
		g.clients = append(g.clients, client{
			src: srcFor(id), dsts: pick(2),
			svcs:   []firewall.Service{{Proto: layers.ProtoTCP, Port: 25}},
			perDay: cfg.SMTPRetries, offset: clientOffset(id), space: 50 * time.Second,
			length: 80,
		})
		id++
	}
	for i := 0; i < cfg.IPsecClients; i++ {
		svcs := []firewall.Service{{Proto: layers.ProtoUDP, Port: 500}}
		if i%3 == 2 {
			svcs = append(svcs, firewall.Service{Proto: layers.ProtoUDP, Port: 4500})
		}
		g.clients = append(g.clients, client{
			src: srcFor(id), dsts: pick(1),
			svcs:   svcs,
			perDay: cfg.IPsecRetries, offset: clientOffset(id), space: 40 * time.Second,
			length: 120,
		})
		id++
	}
	benignSvcs := []firewall.Service{
		{Proto: layers.ProtoTCP, Port: 993},
		{Proto: layers.ProtoUDP, Port: 123},
		{Proto: layers.ProtoTCP, Port: 5222},
	}
	for i := 0; i < cfg.BenignClients; i++ {
		g.clients = append(g.clients, client{
			src: srcFor(id), dsts: pick(3),
			svcs:   []firewall.Service{benignSvcs[i%len(benignSvcs)]},
			perDay: 9, offset: clientOffset(id), space: 5 * time.Minute,
			length: 90, benign: true,
		})
		id++
	}
	return g
}

// clientOffset staggers client schedules across the first 20 hours of
// the day so artifact traffic interleaves with scan traffic without any
// client's burst crossing midnight.
func clientOffset(i int) time.Duration {
	return time.Duration((i*97)%(20*60)) * time.Minute
}

func eyeballCountry(i int) string {
	countries := []string{"US", "DE", "BR", "JP", "FR", "IN", "GB", "PL"}
	return countries[i%len(countries)]
}

// EmitDay generates every client's records for one UTC day. Like
// scanner.Census.EmitDay, output is per-client chronological but not
// globally sorted; callers sort the day before feeding detectors.
func (g *Generator) EmitDay(day time.Time, emit func(r firewall.Record)) {
	rng := rand.New(rand.NewSource(g.cfg.Seed ^ day.Unix()))
	for _, c := range g.clients {
		if len(c.dsts) == 0 || c.perDay <= 0 {
			continue
		}
		ts := day.Add(c.offset + time.Duration(rng.Intn(60))*time.Second)
		for i := 0; i < c.perDay; i++ {
			var dst netip.Addr
			if c.benign {
				// Spread across targets: ≤ perDay/len(dsts) packets per
				// (dst, service) pair, under the duplicate threshold.
				dst = c.dsts[i%len(c.dsts)]
			} else {
				// Concentrate retries: the day's packets split into one
				// run per target, so every (dst, service) pair collects
				// far more than the duplicate threshold.
				dst = c.dsts[i*len(c.dsts)/c.perDay]
			}
			svc := c.svcs[i%len(c.svcs)]
			emit(firewall.Record{
				Time:    ts,
				Src:     c.src,
				Dst:     dst,
				Proto:   svc.Proto,
				SrcPort: uint16(30000 + rng.Intn(20000)),
				DstPort: svc.Port,
				Length:  c.length,
			})
			ts = ts.Add(c.space + time.Duration(rng.Intn(1000))*time.Millisecond)
		}
	}
}
