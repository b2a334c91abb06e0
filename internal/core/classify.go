package core

// PortClass buckets scans by how many ports they target, following
// Figure 4 / Figure 8 of the paper.
type PortClass int

// Port classes of Figures 4 and 8.
const (
	SinglePort   PortClass = iota // one port
	Ports2to10                    // 2–10 ports
	Ports10to100                  // 10–100 ports
	PortsOver100                  // >100 ports
)

// String returns the figure axis label.
func (c PortClass) String() string {
	switch c {
	case SinglePort:
		return "single port"
	case Ports2to10:
		return "2-10 ports"
	case Ports10to100:
		return "10-100 ports"
	case PortsOver100:
		return ">100 ports"
	default:
		return "unknown"
	}
}

// PortClasses lists the classes in display order.
func PortClasses() []PortClass {
	return []PortClass{SinglePort, Ports2to10, Ports10to100, PortsOver100}
}

// ClassifyPorts implements the f-rule of Appendix A.3: with f the
// fraction of the scan's packets hitting its most common port, the
// scan is single-port if f > 0.5, 2–10 ports if f > 0.09, 10–100 ports
// if f > 0.009, and >100 ports otherwise. The rule avoids
// misclassifying a scan as multi-port when only a tiny packet fraction
// strays onto other ports.
func ClassifyPorts(ports []PortCount) PortClass {
	var total, top uint64
	for _, p := range ports {
		total += p.Packets
		top = max(top, p.Packets)
	}
	if total == 0 {
		return SinglePort
	}
	f := float64(top) / float64(total)
	switch {
	case f > 0.5:
		return SinglePort
	case f > 0.09:
		return Ports2to10
	case f > 0.009:
		return Ports10to100
	default:
		return PortsOver100
	}
}

// Class returns the scan's port class under the f-rule.
func (s *Scan) Class() PortClass { return ClassifyPorts(s.Ports) }
