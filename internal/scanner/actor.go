package scanner

import (
	"math/rand"
	"net/netip"
	"time"

	"v6scan/internal/firewall"
	"v6scan/internal/layers"
)

// Phase is one temporal regime of an actor: between From (inclusive)
// and To (exclusive) the actor emits the given daily burst schedule.
// Actors change phases when their behaviour shifts (AS #1's port-set
// switch in May 2021; AS #9 appearing in November 2021).
type Phase struct {
	From, To time.Time
	// SlotsPerDay is the number of bursts per day.
	SlotsPerDay int
	// PacketsPerBurst is the number of probes per burst.
	PacketsPerBurst int
	// WindowStart is the offset of the first slot within the day.
	WindowStart time.Duration
	// SlotSpacing separates burst starts; packets within a burst are
	// spread over BurstLen. Spacing above one hour splits sessions at
	// the detector; spacing below merges them.
	SlotSpacing time.Duration
	// BurstLen is the duration over which a burst's packets spread.
	BurstLen time.Duration
	// Continuous, when true, ignores the slot fields and spreads
	// SlotsPerDay*PacketsPerBurst packets uniformly over the whole day
	// (AS #1's months-long single scan session; AS #9's steady stream).
	Continuous bool
	// EveryNthDay activates the phase only every N-th day (0 and 1 mean
	// every day). Episodic small scanners use this.
	EveryNthDay int
	// DayOffset shifts the EveryNthDay grid so episodic actors do not
	// all fire on the window's first day.
	DayOffset int
}

func (p Phase) activeOn(day time.Time) bool {
	return !day.Before(p.From) && day.Before(p.To)
}

// Actor is one scanning entity.
type Actor struct {
	Name    string
	ASN     int
	Proto   layers.IPProtocol
	PktLen  uint16 // constant probe size; scan traffic has near-zero length entropy
	Sources SourcePlan
	Targets TargetPlan
	Ports   PortPlan
	Phases  []Phase
	// Seed decorrelates this actor's randomness from its peers.
	Seed int64

	rng *rand.Rand
}

// EmitDay generates the actor's probes for the UTC day starting at
// day, invoking emit for each record. dayIdx is the day's index since
// the simulation start (drives source/port rotation). Records are
// emitted in non-decreasing time order.
func (a *Actor) EmitDay(day time.Time, dayIdx int, emit func(firewall.Record)) {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(a.Seed))
	}
	for _, ph := range a.Phases {
		if !ph.activeOn(day) {
			continue
		}
		if ph.EveryNthDay > 1 && (dayIdx+ph.DayOffset)%ph.EveryNthDay != 0 {
			continue
		}
		a.emitPhase(day, dayIdx, ph, emit)
	}
}

func (a *Actor) emitPhase(day time.Time, dayIdx int, ph Phase, emit func(firewall.Record)) {
	if ph.Continuous {
		total := ph.SlotsPerDay * ph.PacketsPerBurst
		if total <= 0 {
			return
		}
		step := 24 * time.Hour / time.Duration(total)
		src := a.Sources.BurstSource(dayIdx, 0, a.rng)
		ports := a.Ports.BurstPorts(dayIdx, 0, a.rng)
		for i := 0; i < total; i++ {
			ts := day.Add(time.Duration(i) * step)
			a.emitOne(ts, src, ports, i, emit)
		}
		return
	}
	for slot := 0; slot < ph.SlotsPerDay; slot++ {
		start := day.Add(ph.WindowStart + time.Duration(slot)*ph.SlotSpacing)
		src := a.Sources.BurstSource(dayIdx, slot, a.rng)
		ports := a.Ports.BurstPorts(dayIdx, slot, a.rng)
		n := ph.PacketsPerBurst
		if n <= 0 {
			continue
		}
		var step time.Duration
		if ph.BurstLen > 0 {
			step = ph.BurstLen / time.Duration(n)
		}
		for i := 0; i < n; i++ {
			ts := start.Add(time.Duration(i) * step)
			a.emitOne(ts, src, ports, i, emit)
		}
	}
}

func (a *Actor) emitOne(ts time.Time, burstSrc netip.Addr, ports []uint16, i int, emit func(firewall.Record)) {
	src := a.Sources.PacketSource(burstSrc, a.rng)
	dst := a.Targets.Target(a.rng)
	port := ports[i%len(ports)]
	emit(firewall.Record{
		Time:    ts,
		Src:     src,
		Dst:     dst,
		Proto:   a.Proto,
		SrcPort: 40000 + uint16(i%20000),
		DstPort: port,
		Length:  a.PktLen,
	})
}
