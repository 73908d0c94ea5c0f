// Package config describes processor micro-architectures: the reference
// Nehalem-based core of Table 6.1, the 3^5 = 243-point design space of
// Table 6.3, the DVFS operating points of Table 7.2, and the derived
// quantities (port maps, functional-unit latencies, memory timing) the
// simulator, analytical model and power model all consume.
package config

import (
	"fmt"
	"strings"

	"mipp/internal/cache"
	"mipp/internal/memory"
	"mipp/internal/prefetch"
	"mipp/internal/trace"
)

// FUSpec describes the functional unit executing one uop class.
type FUSpec struct {
	// Latency is the execution latency in cycles. For Load it is the
	// address-generation part only; the cache-hit latency is added by the
	// memory hierarchy.
	Latency int
	// Pipelined units accept a new uop every cycle; non-pipelined units
	// (the dividers, §3.4) block for Latency cycles.
	Pipelined bool
}

// Port is the set of uop classes one issue port can forward per cycle.
type Port []trace.Class

// Serves reports whether the port can issue class c.
func (p Port) Serves(c trace.Class) bool {
	for _, pc := range p {
		if pc == c {
			return true
		}
	}
	return false
}

// Config is a complete core + memory-hierarchy description.
type Config struct {
	Name string

	// Clocking: frequency in GHz and supply voltage in volts. DVFS
	// changes these jointly (Table 7.2).
	FrequencyGHz float64
	VoltageV     float64

	// Core structures.
	DispatchWidth int // D: uops dispatched (and committed) per cycle
	ROB           int
	IQ            int // instruction (issue) queue entries
	LSQ           int
	FrontEndDepth int // c_fe: front-end refill time in cycles
	MSHRs         int // L1D miss status handling registers

	// Issue stage: ports and per-class functional units (Figure 3.5).
	Ports []Port
	FU    [trace.NumClasses]FUSpec

	// Memory hierarchy.
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	L3  cache.Config

	// Main memory timing in nanoseconds (converted to cycles at the
	// configured frequency so DVFS changes the relative memory latency).
	MemLatencyNS float64
	BusNSPerLine float64
	MemChannels  int

	// Branch predictor name (see branch.NewByName).
	Predictor string

	// Hardware prefetcher.
	Prefetcher prefetch.Config
}

// MemConfig converts the nanosecond memory timing into core cycles at the
// configured frequency.
func (c *Config) MemConfig() memory.Config {
	lat := int(c.MemLatencyNS*c.FrequencyGHz + 0.5)
	bus := int(c.BusNSPerLine*c.FrequencyGHz + 0.5)
	if bus < 1 {
		bus = 1
	}
	ch := c.MemChannels
	if ch <= 0 {
		ch = 1
	}
	return memory.Config{LatencyCycles: lat, BusCyclesPerLine: bus, Channels: ch}
}

// CacheLevels returns the data-side hierarchy configs ordered L1 first.
func (c *Config) CacheLevels() []cache.Config {
	return []cache.Config{c.L1D, c.L2, c.L3}
}

// UnitCount returns how many ports can issue class cl — the number of
// functional units of that type in the issue-contention model (Eq 3.10).
func (c *Config) UnitCount(cl trace.Class) int {
	n := 0
	for _, p := range c.Ports {
		if p.Serves(cl) {
			n++
		}
	}
	return n
}

// Validate reports structural problems (a non-positive clock, a class with
// no port, non-power-of-2 caches, etc.).
func (c *Config) Validate() error {
	if !(c.FrequencyGHz > 0) || !(c.VoltageV > 0) {
		return fmt.Errorf("config %s: non-positive operating point %gGHz %gV", c.Name, c.FrequencyGHz, c.VoltageV)
	}
	if c.DispatchWidth <= 0 || c.ROB <= 0 || c.IQ <= 0 {
		return fmt.Errorf("config %s: non-positive core structure", c.Name)
	}
	// One pass over the port map (not UnitCount per class, which rescans
	// it): a class is issueable iff any port lists it.
	var served uint64
	for _, p := range c.Ports {
		for _, cl := range p {
			served |= 1 << cl
		}
	}
	for cl := trace.Class(0); cl < trace.NumClasses; cl++ {
		if served&(1<<cl) == 0 {
			return fmt.Errorf("config %s: no port serves %v", c.Name, cl)
		}
		if c.FU[cl].Latency <= 0 {
			return fmt.Errorf("config %s: class %v has latency %d", c.Name, cl, c.FU[cl].Latency)
		}
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2, c.L3} {
		n := cc.Sets()
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("config %s: cache %s set count %d not a power of two", c.Name, cc.Name, n)
		}
	}
	return nil
}

// String summarizes the configuration as a Table 6.1-style listing.
func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.2fGHz %.2fV, dispatch %d, ROB %d, IQ %d, LSQ %d, MSHR %d, fe %d\n",
		c.Name, c.FrequencyGHz, c.VoltageV, c.DispatchWidth, c.ROB, c.IQ, c.LSQ, c.MSHRs, c.FrontEndDepth)
	fmt.Fprintf(&b, "  %v\n  %v\n  %v\n  %v\n", c.L1I, c.L1D, c.L2, c.L3)
	fmt.Fprintf(&b, "  mem %.0fns bus %.2fns/line, predictor %s, prefetcher %v (table %d, degree %d)",
		c.MemLatencyNS, c.BusNSPerLine, c.Predictor, c.Prefetcher.Enabled, c.Prefetcher.TableSize, c.Prefetcher.Degree)
	return b.String()
}

// defaultFU is the reference functional-unit timing (Nehalem-like): single
// cycle integer ALUs, 3-cycle pipelined multiplies and FP adds, 5-cycle
// pipelined FP multiplies, ~20-cycle non-pipelined dividers.
func defaultFU() [trace.NumClasses]FUSpec {
	var fu [trace.NumClasses]FUSpec
	fu[trace.IntALU] = FUSpec{Latency: 1, Pipelined: true}
	fu[trace.IntMul] = FUSpec{Latency: 3, Pipelined: true}
	fu[trace.IntDiv] = FUSpec{Latency: 20, Pipelined: false}
	fu[trace.FPAdd] = FUSpec{Latency: 3, Pipelined: true}
	fu[trace.FPMul] = FUSpec{Latency: 5, Pipelined: true}
	fu[trace.FPDiv] = FUSpec{Latency: 24, Pipelined: false}
	fu[trace.Load] = FUSpec{Latency: 1, Pipelined: true} // + cache latency
	fu[trace.Store] = FUSpec{Latency: 1, Pipelined: true}
	fu[trace.Branch] = FUSpec{Latency: 1, Pipelined: true}
	fu[trace.Move] = FUSpec{Latency: 1, Pipelined: true}
	return fu
}

// portsForWidth returns an issue-port map scaled with the pipeline width:
// width 4 reproduces the Nehalem layout of Figure 3.5 (6 ports, loads on one
// dedicated port, stores on two, dividers sharing port 0).
func portsForWidth(width int) []Port {
	switch {
	case width <= 2:
		return []Port{
			{trace.IntALU, trace.IntMul, trace.FPMul, trace.FPDiv, trace.IntDiv, trace.Move},
			{trace.IntALU, trace.FPAdd, trace.Branch, trace.Move},
			{trace.Load},
			{trace.Store},
		}
	case width <= 4:
		return []Port{
			{trace.IntALU, trace.FPMul, trace.FPDiv, trace.IntDiv, trace.Move},
			{trace.IntALU, trace.IntMul, trace.FPAdd, trace.Move},
			{trace.Load},
			{trace.Store},
			{trace.Store},
			{trace.IntALU, trace.Branch, trace.Move},
		}
	default:
		return []Port{
			{trace.IntALU, trace.FPMul, trace.FPDiv, trace.IntDiv, trace.Move},
			{trace.IntALU, trace.IntMul, trace.FPAdd, trace.Move},
			{trace.Load},
			{trace.Load},
			{trace.Store},
			{trace.Store},
			{trace.IntALU, trace.Branch, trace.Move},
			{trace.IntALU, trace.FPAdd, trace.Move},
		}
	}
}

// Reference returns the Nehalem-based reference architecture of Table 6.1:
// a 4-wide core at 2.66 GHz with a 128-entry ROB and a 32 KB / 256 KB / 8 MB
// cache hierarchy.
func Reference() *Config {
	c := &Config{
		Name:          "nehalem-ref",
		FrequencyGHz:  2.66,
		VoltageV:      1.1,
		DispatchWidth: 4,
		ROB:           128,
		IQ:            36,
		LSQ:           64,
		FrontEndDepth: 5,
		MSHRs:         10,
		Ports:         portsForWidth(4),
		FU:            defaultFU(),
		L1I:           cache.Config{Name: "L1I", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, LatencyCycles: 1},
		L1D:           cache.Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64, LatencyCycles: 4},
		L2:            cache.Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64, LatencyCycles: 10},
		L3:            cache.Config{Name: "L3", SizeBytes: 8 << 20, Assoc: 16, LineBytes: 64, LatencyCycles: 30},
		MemLatencyNS:  75,
		BusNSPerLine:  3,
		MemChannels:   1,
		Predictor:     "tournament",
		Prefetcher:    prefetch.Config{Enabled: false, TableSize: 64, Degree: 2, PageBytes: 4096, MinConfidence: 2},
	}
	return c
}

// ReferenceWithPrefetcher is the reference architecture with the stride
// prefetcher enabled (§4.9, Figure 6.18).
func ReferenceWithPrefetcher() *Config {
	c := Reference()
	c.Name = "nehalem-ref+pf"
	c.Prefetcher.Enabled = true
	return c
}

// LowPower returns the low-power core used in Figure 6.13: a narrow 2-wide
// pipeline, small windows and caches, and a low DVFS point.
func LowPower() *Config {
	c := Reference()
	c.Name = "low-power"
	c.FrequencyGHz = 1.6
	c.VoltageV = 0.9
	c.DispatchWidth = 2
	c.ROB = 48
	c.IQ = 16
	c.LSQ = 24
	c.MSHRs = 4
	c.Ports = portsForWidth(2)
	c.L1D.SizeBytes = 16 << 10
	c.L1D.Assoc = 4
	c.L2.SizeBytes = 128 << 10
	c.L3.SizeBytes = 2 << 20
	return c
}

// scaleWindow derives the dependent structure sizes from the ROB, keeping
// the reference proportions (IQ ≈ 0.28·ROB, LSQ = ROB/2).
func scaleWindow(c *Config, rob int) {
	c.ROB = rob
	c.IQ = rob * 9 / 32
	if c.IQ < 8 {
		c.IQ = 8
	}
	c.LSQ = rob / 2
	switch {
	case rob <= 64:
		c.MSHRs = 6
	case rob <= 128:
		c.MSHRs = 10
	default:
		c.MSHRs = 16
	}
}

// DesignSpace enumerates the 3^5 = 243-configuration space of Table 6.3:
// pipeline width {2,4,6} × ROB {64,128,256} × L2 {128,256,512 KB} ×
// L3 {2,4,8 MB} × frequency {2.0, 2.66, 3.33 GHz} (with voltage scaled).
// It materializes TableSpace, giving each configuration its own port map so
// every returned config is fully independent.
func DesignSpace() []*Config {
	sp := TableSpace()
	out := make([]*Config, sp.Size())
	for i := range out {
		c := sp.At(i)
		c.Ports = portsForWidth(c.DispatchWidth)
		out[i] = c
	}
	return out
}

// DVFSPoint is one voltage/frequency operating point (Table 7.2). The JSON
// form is the wire spelling used by parametric-space clock axes.
type DVFSPoint struct {
	FrequencyGHz float64 `json:"frequency_ghz"`
	VoltageV     float64 `json:"voltage_v"`
}

// DVFSPoints returns the Nehalem-based DVFS settings of Table 7.2.
func DVFSPoints() []DVFSPoint {
	return []DVFSPoint{
		{1.60, 0.95},
		{2.00, 1.00},
		{2.40, 1.05},
		{2.66, 1.10},
		{3.20, 1.20},
	}
}

// WithDVFS returns a copy of c at the given operating point.
func WithDVFS(c *Config, p DVFSPoint) *Config {
	cc := *c
	cc.Name = fmt.Sprintf("%s@%.2fGHz", c.Name, p.FrequencyGHz)
	cc.FrequencyGHz = p.FrequencyGHz
	cc.VoltageV = p.VoltageV
	return &cc
}
