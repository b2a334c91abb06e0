package asdb

import (
	"net/netip"
	"testing"

	"v6scan/internal/netaddr6"
)

func TestTypeString(t *testing.T) {
	if TypeCloudTransit.String() != "Cloud/Transit" {
		t.Errorf("got %q", TypeCloudTransit)
	}
	if Type(99).String() != "Type(99)" {
		t.Errorf("got %q", Type(99))
	}
}

func TestASLabel(t *testing.T) {
	a := AS{Number: 1, Type: TypeDatacenter, Country: "CN"}
	if a.Label() != "Datacenter (CN)" {
		t.Errorf("got %q", a.Label())
	}
}

func TestAttribute(t *testing.T) {
	db := New()
	db.AddAS(AS{Number: 64500, Name: "ExampleNet", Type: TypeISP, Country: "DE"})
	db.AddAS(AS{Number: 64501, Name: "ExampleCloud", Type: TypeCloud, Country: "US"})
	if err := db.Allocate(netaddr6.MustPrefix("2001:db8::/32"), 64500, KindRIRAllocation); err != nil {
		t.Fatal(err)
	}
	if err := db.Allocate(netaddr6.MustPrefix("2001:db8:ff::/48"), 64501, KindBGPAnnounced); err != nil {
		t.Fatal(err)
	}

	a, alloc, ok := db.Attribute(netaddr6.MustAddr("2001:db8::1"))
	if !ok || a.Number != 64500 || alloc.Kind != KindRIRAllocation {
		t.Errorf("attribute /32: %+v %+v %v", a, alloc, ok)
	}
	a, alloc, ok = db.Attribute(netaddr6.MustAddr("2001:db8:ff::1"))
	if !ok || a.Number != 64501 || alloc.Prefix.Bits() != 48 {
		t.Errorf("attribute /48: %+v %+v %v", a, alloc, ok)
	}
	if _, _, ok := db.Attribute(netaddr6.MustAddr("2001:db9::1")); ok {
		t.Error("unallocated address attributed")
	}
}

func TestAttributeUnknownASMetadata(t *testing.T) {
	db := New()
	db.Allocate(netaddr6.MustPrefix("2001:db8::/32"), 64999, KindRIRAllocation)
	a, _, ok := db.Attribute(netaddr6.MustAddr("2001:db8::1"))
	if !ok {
		t.Fatal("no attribution")
	}
	if a.Number != 64999 {
		t.Errorf("expected ASN backfill, got %+v", a)
	}
	if a.Type != TypeUnknown {
		t.Errorf("expected unknown type, got %v", a.Type)
	}
}

func TestAllocateRejectsIPv4(t *testing.T) {
	db := New()
	if err := db.Allocate(netip.MustParsePrefix("10.0.0.0/8"), 1, KindRIRAllocation); err == nil {
		t.Error("IPv4 allocation accepted")
	}
}

func TestAllocationKindString(t *testing.T) {
	if KindRIRAllocation.String() != "rir" || KindBGPAnnounced.String() != "bgp" || KindCustomer.String() != "customer" {
		t.Error("kind names wrong")
	}
	if AllocationKind(9).String() != "kind(9)" {
		t.Error("unknown kind name wrong")
	}
}
