package telescope

import (
	"net/netip"
	"testing"

	"v6scan/internal/asdb"
	"v6scan/internal/netaddr6"
)

func buildSmall(t *testing.T) (*Telescope, *asdb.DB) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Machines = 500
	cfg.ASes = 20
	db := asdb.New()
	ts, err := New(cfg, db)
	if err != nil {
		t.Fatal(err)
	}
	return ts, db
}

func TestBuildCounts(t *testing.T) {
	ts, db := buildSmall(t)
	if ts.NumMachines() != 500 {
		t.Errorf("machines = %d", ts.NumMachines())
	}
	if len(ts.ExposedAddrs()) != 500 || len(ts.HiddenAddrs()) != 500 {
		t.Error("address list lengths wrong")
	}
	// Every machine attributes to its deployment AS, and each of the 20
	// ASes holds one allocation.
	ases, allocs := map[int]bool{}, map[netip.Prefix]bool{}
	for _, m := range ts.Machines() {
		as, alloc, ok := db.Attribute(m.Exposed)
		if !ok || as.Number != m.ASN {
			t.Fatalf("machine %d attributes to %+v (%v), want AS %d", m.ID, as, ok, m.ASN)
		}
		ases[as.Number], allocs[alloc.Prefix] = true, true
	}
	if len(ases) != 20 || len(allocs) != 20 {
		t.Errorf("ASes = %d, allocations = %d, want 20 each", len(ases), len(allocs))
	}
}

func TestAddressesDistinct(t *testing.T) {
	ts, _ := buildSmall(t)
	seen := map[netip.Addr]bool{}
	for _, m := range ts.Machines() {
		if m.Exposed == m.Hidden {
			t.Fatalf("machine %d: identical pair", m.ID)
		}
		for _, a := range []netip.Addr{m.Exposed, m.Hidden} {
			if seen[a] {
				t.Fatalf("duplicate address %s", a)
			}
			seen[a] = true
		}
	}
}

func TestPairsShareSlash64AndCloseness(t *testing.T) {
	ts, _ := buildSmall(t)
	within123 := 0
	for _, m := range ts.Machines() {
		if !netaddr6.SameSlash(m.Exposed, m.Hidden, 64) {
			t.Fatalf("pair not in same /64: %s / %s", m.Exposed, m.Hidden)
		}
		if !netaddr6.SameSlash(m.Exposed, m.Hidden, 112) {
			t.Fatalf("pair not within /112: %s / %s", m.Exposed, m.Hidden)
		}
		if netaddr6.SameSlash(m.Exposed, m.Hidden, 123) {
			within123++
		}
	}
	share := float64(within123) / float64(ts.NumMachines())
	if share < 0.75 || share > 0.95 {
		t.Errorf("within-/123 share = %.2f, want ≈0.85", share)
	}
}

// TestInDNSAndPairOf: of each machine's address pair, the exposed
// address is in DNS and its hidden sibling is not.
func TestInDNSAndPairOf(t *testing.T) {
	ts, _ := buildSmall(t)
	for _, m := range ts.Machines() {
		if !ts.InDNS(m.Exposed) || ts.InDNS(m.Hidden) {
			t.Fatalf("machine %d: InDNS(exposed %s) = %v, InDNS(hidden %s) = %v",
				m.ID, m.Exposed, ts.InDNS(m.Exposed), m.Hidden, ts.InDNS(m.Hidden))
		}
	}
	if outside := netaddr6.MustAddr("2001:db8::1"); ts.InDNS(outside) {
		t.Error("outside address claimed")
	}
}

func TestAttributionThroughASDB(t *testing.T) {
	ts, db := buildSmall(t)
	for _, m := range ts.Machines()[:50] {
		as, _, ok := db.Attribute(m.Exposed)
		if !ok {
			t.Fatalf("machine %d not attributable", m.ID)
		}
		if as.Number != m.ASN {
			t.Fatalf("machine %d: attributed to AS%d, want AS%d", m.ID, as.Number, m.ASN)
		}
		if as.Type != asdb.TypeCDN {
			t.Fatalf("machine AS type %v", as.Type)
		}
	}
}

func TestSkewedDeployment(t *testing.T) {
	ts, _ := buildSmall(t)
	perAS := map[int]int{}
	for _, m := range ts.Machines() {
		perAS[m.ASN]++
	}
	largest, smallest := 0, 1<<30
	for _, c := range perAS {
		if c > largest {
			largest = c
		}
		if c < smallest {
			smallest = c
		}
	}
	if largest < 5*smallest {
		t.Errorf("deployment not skewed: largest %d, smallest %d", largest, smallest)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machines = 200
	cfg.ASes = 10
	a, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Machines() {
		if a.Machines()[i] != b.Machines()[i] {
			t.Fatalf("machine %d differs across identical builds", i)
		}
	}
	cfg.Seed = 2
	c, _ := New(cfg, nil)
	same := true
	for i := range a.Machines() {
		if a.Machines()[i] != c.Machines()[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed produced identical telescope")
	}
}

func TestExposedAddressesAreStructured(t *testing.T) {
	ts, _ := buildSmall(t)
	// CDN machine addresses are low-Hamming-weight; mean IID HW must be
	// far below the random expectation of 32.
	sum := 0
	for _, a := range ts.ExposedAddrs() {
		sum += netaddr6.HammingWeightIID(a)
	}
	mean := float64(sum) / float64(len(ts.ExposedAddrs()))
	if mean > 8 {
		t.Errorf("mean exposed HW = %.1f, want structured (≤8)", mean)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Machines: 0, ASes: 5}, nil); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(Config{Machines: 3, ASes: 5}, nil); err == nil {
		t.Error("more ASes than machines accepted")
	}
}
