package config

import (
	"fmt"
	"iter"
	"strconv"
	"sync"
	"sync/atomic"
)

// Space is a lazy parametric design space: the cross product of up to six
// axes over the reference architecture (pipeline width, ROB size, L2 and L3
// capacity, frequency/voltage operating point, prefetcher on/off). A Space
// is never materialized — Size() reports the cross-product cardinality and
// At(i) builds the i-th configuration on demand, so a 10⁵–10⁷-point space
// costs a few slices, not gigabytes of configs.
//
// An empty axis pins that dimension to the reference value. Enumeration is
// lexicographic with Widths outermost and Prefetcher innermost; with no
// prefetcher axis the order (and the generated names) match DesignSpace
// exactly, so TableSpace().At(i) reproduces DesignSpace()[i].
//
// A Space is treated as immutable once handed to At/Validate/All; it is
// safe for concurrent use. Clocks must carry distinct frequencies (at the
// two decimals the generated names encode; Validate enforces this) —
// names encode the frequency, not the voltage.
type Space struct {
	// Name labels the space in reports and logs.
	Name string `json:"name,omitempty"`
	// Widths enumerates dispatch widths; the issue-port map scales with
	// each width as in DesignSpace.
	Widths []int `json:"widths,omitempty"`
	// ROBs enumerates reorder-buffer sizes; IQ, LSQ and MSHRs scale with
	// the ROB, keeping the reference proportions.
	ROBs []int `json:"robs,omitempty"`
	// L2Bytes and L3Bytes enumerate cache capacities in bytes; set counts
	// must stay powers of two at the reference associativity.
	L2Bytes []int64 `json:"l2_bytes,omitempty"`
	L3Bytes []int64 `json:"l3_bytes,omitempty"`
	// Clocks enumerates frequency/voltage operating points.
	Clocks []DVFSPoint `json:"clocks,omitempty"`
	// Prefetcher enumerates stride-prefetcher settings (off/on).
	Prefetcher []bool `json:"prefetcher,omitempty"`

	// freqNames caches the fixed-two-decimal frequency strings the naming
	// scheme embeds: AppendFloat's fixed-precision path is the single most
	// expensive step of materializing a config, and a space has only a
	// handful of distinct clocks. Built lazily on first At; building twice
	// under a race is benign (the contents are deterministic).
	freqNames atomic.Pointer[[]string]
}

// NumSpaceAxes is the fixed axis count of a Space (coordinate vectors have
// this length).
const NumSpaceAxes = 6

// maxSpaceSize bounds Size() so index arithmetic stays well inside int64
// (typed: the untyped constant would overflow int on 32-bit platforms).
const maxSpaceSize int64 = 1 << 40

// spaceBase is the shared read-only template At copies: one Reference()
// built once, its Ports slices shared by every generated configuration.
var spaceBase = sync.OnceValue(func() *Config { return Reference() })

// sharedPorts caches the three port-map variants so At does not rebuild
// per-width port slices for every configuration. The returned slices are
// shared and must be treated as read-only — the model only ever reads them.
var sharedPorts = sync.OnceValue(func() map[int][]Port {
	return map[int][]Port{2: portsForWidth(2), 4: portsForWidth(4), 6: portsForWidth(6)}
})

func sharedPortsForWidth(w int) []Port {
	switch {
	case w <= 2:
		return sharedPorts()[2]
	case w <= 4:
		return sharedPorts()[4]
	default:
		return sharedPorts()[6]
	}
}

// dims returns the axis lengths, with empty (pinned) axes counted as one.
func (s *Space) dims() [NumSpaceAxes]int {
	d := [NumSpaceAxes]int{
		len(s.Widths), len(s.ROBs), len(s.L2Bytes),
		len(s.L3Bytes), len(s.Clocks), len(s.Prefetcher),
	}
	for i := range d {
		if d[i] == 0 {
			d[i] = 1
		}
	}
	return d
}

// Dims returns the per-axis cardinalities in enumeration order (pinned
// axes report 1) — the coordinate ranges strategies mutate within.
func (s *Space) Dims() [NumSpaceAxes]int { return s.dims() }

// Size returns the number of points in the space (the product of axis
// lengths; pinned axes contribute one).
func (s *Space) Size() int {
	n := 1
	for _, d := range s.dims() {
		n *= d
	}
	return n
}

// Coords decodes index i into per-axis coordinates, reusing dst when it
// has the capacity (pass the previous result back in to avoid allocation).
// The axis order is Widths, ROBs, L2Bytes, L3Bytes, Clocks, Prefetcher,
// innermost last.
//
//mipp:hotpath
func (s *Space) Coords(i int, dst []int) []int {
	d := s.dims()
	if cap(dst) < NumSpaceAxes {
		dst = make([]int, NumSpaceAxes)
	}
	dst = dst[:NumSpaceAxes]
	for ax := NumSpaceAxes - 1; ax >= 0; ax-- {
		dst[ax] = i % d[ax]
		i /= d[ax]
	}
	return dst
}

// Index is the inverse of Coords: the lexicographic index of a coordinate
// vector. Coordinates out of range are clamped into their axis.
//
//mipp:hotpath
func (s *Space) Index(coords []int) int {
	d := s.dims()
	i := 0
	for ax := 0; ax < NumSpaceAxes; ax++ {
		c := 0
		if ax < len(coords) {
			c = coords[ax]
		}
		if c < 0 {
			c = 0
		}
		if c >= d[ax] {
			c = d[ax] - 1
		}
		i = i*d[ax] + c
	}
	return i
}

// Neighbors appends the indices one axis step (±1) away from i to dst —
// the move set of hill-climbing and mutation. Pinned axes contribute no
// neighbors; every point has at most 2·NumSpaceAxes of them.
//
//mipp:hotpath
func (s *Space) Neighbors(i int, dst []int) []int {
	d := s.dims()
	var coords [NumSpaceAxes]int
	j := i
	for ax := NumSpaceAxes - 1; ax >= 0; ax-- {
		coords[ax] = j % d[ax]
		j /= d[ax]
	}
	// Stride of axis ax is the product of inner axis lengths.
	stride := 1
	for ax := NumSpaceAxes - 1; ax >= 0; ax-- {
		if coords[ax] > 0 {
			dst = append(dst, i-stride)
		}
		if coords[ax] < d[ax]-1 {
			dst = append(dst, i+stride)
		}
		stride *= d[ax]
	}
	return dst
}

// At builds the i-th configuration of the enumeration. The result shares
// the read-only port map with every other generated config but is otherwise
// an independent copy, safe to hand to the model. Panics if i is out of
// [0, Size()).
//
//mipp:hotpath
func (s *Space) At(i int) *Config {
	c := new(Config)
	s.AtInto(i, c)
	return c
}

// AtInto writes the i-th configuration of the enumeration into c,
// overwriting every field, so one slot can be reused from point to point
// (the search runner fills each generation into a reused slab this way).
// c then equals *At(i); its name is the only allocation. Panics if i is out
// of [0, Size()).
//
//mipp:hotpath
func (s *Space) AtInto(i int, c *Config) {
	if i < 0 || i >= s.Size() {
		//mipp:allow hotpath cold out-of-range panic, unreachable per well-formed evaluation
		panic(fmt.Sprintf("config: Space.At(%d) out of range [0,%d)", i, s.Size()))
	}
	d := s.dims()
	var coords [NumSpaceAxes]int
	j := i
	for ax := NumSpaceAxes - 1; ax >= 0; ax-- {
		coords[ax] = j % d[ax]
		j /= d[ax]
	}
	s.fill(coords, c)
	c.Name = s.name(coords, c)
}

// fill writes the configuration at a coordinate vector (coordinates already
// in range) into c, every field but the generated name: a copy of the
// reference with each non-pinned axis applied.
//
//mipp:hotpath
func (s *Space) fill(coords [NumSpaceAxes]int, c *Config) {
	*c = *spaceBase()
	if len(s.Widths) > 0 {
		c.DispatchWidth = s.Widths[coords[0]]
		c.Ports = sharedPortsForWidth(c.DispatchWidth)
	}
	if len(s.ROBs) > 0 {
		scaleWindow(c, s.ROBs[coords[1]])
	}
	if len(s.L2Bytes) > 0 {
		c.L2.SizeBytes = s.L2Bytes[coords[2]]
	}
	if len(s.L3Bytes) > 0 {
		c.L3.SizeBytes = s.L3Bytes[coords[3]]
	}
	if len(s.Clocks) > 0 {
		p := s.Clocks[coords[4]]
		c.FrequencyGHz = p.FrequencyGHz
		c.VoltageV = p.VoltageV
	}
	if len(s.Prefetcher) > 0 {
		c.Prefetcher.Enabled = s.Prefetcher[coords[5]]
	}
}

// name builds the generated name of the configuration fill wrote into c:
// DesignSpace's naming scheme ("w4-rob128-l2_256k-l3_8m-f2.66"), with
// strconv appends so the name costs one allocation, plus a "+pf" suffix
// when a prefetcher axis switches it on.
//
//mipp:hotpath
func (s *Space) name(coords [NumSpaceAxes]int, c *Config) string {
	buf := make([]byte, 0, 48)
	buf = append(buf, 'w')
	buf = strconv.AppendInt(buf, int64(c.DispatchWidth), 10)
	buf = append(buf, "-rob"...)
	buf = strconv.AppendInt(buf, int64(c.ROB), 10)
	buf = append(buf, "-l2_"...)
	buf = strconv.AppendInt(buf, c.L2.SizeBytes>>10, 10)
	buf = append(buf, "k-l3_"...)
	buf = strconv.AppendInt(buf, c.L3.SizeBytes>>20, 10)
	buf = append(buf, "m-f"...)
	buf = append(buf, s.freqName(coords[4], c.FrequencyGHz)...)
	if c.Prefetcher.Enabled && len(s.Prefetcher) > 0 {
		buf = append(buf, "+pf"...)
	}
	return string(buf)
}

// freqName returns the fixed-two-decimal string for the clock axis value at
// coordinate ci (the same bytes strconv.AppendFloat(f, 'f', 2, 64) would
// produce — FormatFloat builds the cache), serving every At call after the
// first from the per-Space table. freq is the already-resolved frequency of
// the configuration, used both to build the table and as the single cached
// value when the clock axis is pinned.
//
//mipp:hotpath
func (s *Space) freqName(ci int, freq float64) string {
	if p := s.freqNames.Load(); p != nil {
		return (*p)[ci]
	}
	var names []string
	if len(s.Clocks) == 0 {
		names = []string{strconv.FormatFloat(freq, 'f', 2, 64)}
	} else {
		names = make([]string, len(s.Clocks))
		for i, p := range s.Clocks {
			names[i] = strconv.FormatFloat(p.FrequencyGHz, 'f', 2, 64)
		}
	}
	s.freqNames.CompareAndSwap(nil, &names)
	return (*s.freqNames.Load())[ci]
}

// All iterates (index, configuration) pairs lazily in enumeration order;
// breaking out of the range loop stops the enumeration, so huge spaces can
// be scanned prefix-first without ever materializing.
func (s *Space) All() iter.Seq2[int, *Config] {
	return func(yield func(int, *Config) bool) {
		n := s.Size()
		for i := 0; i < n; i++ {
			if !yield(i, s.At(i)) {
				return
			}
		}
	}
}

// Validate checks the axes: positive structure sizes, power-of-two cache
// set counts, positive clocks, distinct generated names, and a bounded
// cross-product size. It probes one configuration per axis value (varying a
// single axis from the origin) in one reused Config, so a bad value is
// reported with the axis that introduced it.
func (s *Space) Validate() error {
	n := int64(1)
	for _, d := range s.dims() {
		if n > maxSpaceSize/int64(d) {
			return fmt.Errorf("config: space %q exceeds %d points", s.Name, maxSpaceSize)
		}
		n *= int64(d)
	}
	for _, p := range s.Clocks {
		if p.FrequencyGHz <= 0 || p.VoltageV <= 0 {
			return fmt.Errorf("config: space %q: non-positive operating point %+v", s.Name, p)
		}
	}
	if err := s.validateNames(); err != nil {
		return err
	}
	var c Config
	d := s.dims()
	for ax := 0; ax < NumSpaceAxes; ax++ {
		for vi := 0; vi < d[ax]; vi++ {
			var coords [NumSpaceAxes]int
			coords[ax] = vi
			s.fill(coords, &c)
			if c.Validate() != nil {
				// Name the probe only once it fails: the name is its
				// one allocation.
				c.Name = s.name(coords, &c)
				return fmt.Errorf("config: space %q axis %d value %d: %w", s.Name, ax, vi, c.Validate())
			}
		}
	}
	return nil
}

// namePiece is what one axis value prints into the generated names: the
// number of a width, ROB, L2 (KB) or L3 (MB) piece, the prefetcher suffix
// as 0 or 1, or a clock's two-decimal frequency.
type namePiece struct {
	axis int
	n    int64
	freq string
}

// piece returns the name piece of value vi of axis ax (vi in range).
func (s *Space) piece(ax, vi int) namePiece {
	p := namePiece{axis: ax}
	switch ax {
	case 0:
		p.n = int64(s.Widths[vi])
	case 1:
		p.n = int64(s.ROBs[vi])
	case 2:
		p.n = s.L2Bytes[vi] >> 10
	case 3:
		p.n = s.L3Bytes[vi] >> 20
	case 4:
		p.freq = s.freqName(vi, s.Clocks[vi].FrequencyGHz)
	case 5:
		if s.Prefetcher[vi] {
			p.n = 1
		}
	}
	return p
}

// validateNames rejects two values of one axis whose name pieces are equal:
// every point they span would share its name with another point, silently
// conflating everything keyed by config name (CompareFronts, the fidelity
// recorder). Clock pieces come from the space's frequency-name table, which
// every later At reuses.
func (s *Space) validateNames() error {
	lens := [NumSpaceAxes]int{len(s.Widths), len(s.ROBs), len(s.L2Bytes), len(s.L3Bytes), len(s.Clocks), len(s.Prefetcher)}
	seen := make(map[namePiece]int, lens[0]+lens[1]+lens[2]+lens[3]+lens[4]+lens[5])
	for ax, n := range lens {
		for vi := 0; vi < n; vi++ {
			p := s.piece(ax, vi)
			if first, ok := seen[p]; ok {
				return fmt.Errorf("config: space %q: %s %v and %v collide in the generated names",
					s.Name, axisNames[ax], s.value(ax, first), s.value(ax, vi))
			}
			seen[p] = vi
		}
	}
	return nil
}

// axisNames name the axes in enumeration order, for error messages.
var axisNames = [NumSpaceAxes]string{"width", "ROB size", "L2 bytes", "L3 bytes", "clock frequency GHz", "prefetcher"}

// value returns value vi of axis ax, for error messages.
func (s *Space) value(ax, vi int) any {
	switch ax {
	case 0:
		return s.Widths[vi]
	case 1:
		return s.ROBs[vi]
	case 2:
		return s.L2Bytes[vi]
	case 3:
		return s.L3Bytes[vi]
	case 4:
		return s.Clocks[vi].FrequencyGHz
	}
	return s.Prefetcher[vi]
}

// TableSpace is the 3^5 = 243-point space of Table 6.3 as a parametric
// Space: TableSpace().At(i) equals DesignSpace()[i], names included.
func TableSpace() *Space {
	return &Space{
		Name:    "table6.3",
		Widths:  []int{2, 4, 6},
		ROBs:    []int{64, 128, 256},
		L2Bytes: []int64{128 << 10, 256 << 10, 512 << 10},
		L3Bytes: []int64{2 << 20, 4 << 20, 8 << 20},
		Clocks:  []DVFSPoint{{2.0, 1.0}, {2.66, 1.1}, {3.33, 1.25}},
	}
}
