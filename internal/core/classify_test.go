package core

import (
	"testing"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
)

// tcp is n packets on TCP port.
func tcp(port uint16, n uint64) PortCount {
	return PortCount{firewall.Service{Proto: layers.ProtoTCP, Port: port}, n}
}

func TestClassifySinglePort(t *testing.T) {
	ports := []PortCount{tcp(22, 1000)}
	if c := ClassifyPorts(ports); c != SinglePort {
		t.Errorf("got %v", c)
	}
	// A tiny stray fraction must not flip the class (the f-rule's whole
	// point): 95% on one port is still "single port".
	ports = append(ports, tcp(23, 30), tcp(24, 20))
	if c := ClassifyPorts(ports); c != SinglePort {
		t.Errorf("with strays: got %v", c)
	}
}

func TestClassifyFewPorts(t *testing.T) {
	var ports []PortCount
	for p := uint16(0); p < 4; p++ {
		ports = append(ports, tcp(22+p, 250)) // f = 0.25 → 2–10 ports
	}
	if c := ClassifyPorts(ports); c != Ports2to10 {
		t.Errorf("got %v", c)
	}
}

func TestClassifyTensOfPorts(t *testing.T) {
	var ports []PortCount
	for p := uint16(0); p < 50; p++ {
		ports = append(ports, tcp(1000+p, 20)) // f = 0.02 → 10–100
	}
	if c := ClassifyPorts(ports); c != Ports10to100 {
		t.Errorf("got %v", c)
	}
}

func TestClassifyManyPorts(t *testing.T) {
	var ports []PortCount
	for p := uint16(0); p < 400; p++ {
		ports = append(ports, tcp(1000+p, 5)) // f = 0.0025 → >100
	}
	if c := ClassifyPorts(ports); c != PortsOver100 {
		t.Errorf("got %v", c)
	}
}

func TestClassifyBoundaries(t *testing.T) {
	// f exactly 0.5 is NOT single-port (> comparison).
	ports := []PortCount{tcp(1, 50), tcp(2, 25), tcp(3, 25)}
	if c := ClassifyPorts(ports); c != Ports2to10 {
		t.Errorf("f=0.5: got %v", c)
	}
	if c := ClassifyPorts(nil); c != SinglePort {
		t.Errorf("empty: got %v", c)
	}
}

func TestPortClassStrings(t *testing.T) {
	want := []string{"single port", "2-10 ports", "10-100 ports", ">100 ports"}
	for i, c := range PortClasses() {
		if c.String() != want[i] {
			t.Errorf("class %d: %q", i, c)
		}
	}
	if PortClass(9).String() != "unknown" {
		t.Error("unknown class name")
	}
}
