package arch_test

// Parametric-space tests: TableSpace must reproduce DesignSpace point for
// point (the reference subspace searches are validated against), indices
// must round-trip through coordinates, neighbors must be exactly the ±1
// axis moves, and the iterator must stay lazy.

import (
	"reflect"
	"testing"

	"mipp/arch"
)

func TestTableSpaceMatchesDesignSpace(t *testing.T) {
	sp := arch.TableSpace()
	want := arch.DesignSpace()
	if sp.Size() != len(want) {
		t.Fatalf("TableSpace.Size() = %d, want %d", sp.Size(), len(want))
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got := sp.At(i)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("TableSpace.At(%d) = %+v\nwant %+v", i, got, w)
		}
	}
}

func TestSpaceCoordsIndexRoundTrip(t *testing.T) {
	sp := &arch.Space{
		Widths:     []int{2, 4, 6},
		ROBs:       []int{64, 128},
		L3Bytes:    []int64{2 << 20, 8 << 20},
		Clocks:     []arch.DVFSPoint{{FrequencyGHz: 2.0, VoltageV: 1.0}, {FrequencyGHz: 3.2, VoltageV: 1.2}},
		Prefetcher: []bool{false, true},
	}
	n := sp.Size()
	if n != 3*2*2*2*2 {
		t.Fatalf("Size() = %d, want 48", n)
	}
	var coords []int
	for i := 0; i < n; i++ {
		coords = sp.Coords(i, coords)
		if got := sp.Index(coords); got != i {
			t.Fatalf("Index(Coords(%d)) = %d", i, got)
		}
	}
	// Prefetcher is the innermost axis: consecutive indices toggle it.
	if a, b := sp.At(0), sp.At(1); a.Prefetcher.Enabled || !b.Prefetcher.Enabled {
		t.Errorf("innermost axis: At(0).pf=%v At(1).pf=%v", a.Prefetcher.Enabled, b.Prefetcher.Enabled)
	}
	// The "+pf" suffix keeps names unique across the prefetcher axis.
	if a, b := sp.At(0).Name, sp.At(1).Name; a == b || b != a+"+pf" {
		t.Errorf("names not distinguished: %q vs %q", a, b)
	}
}

func TestSpaceNeighbors(t *testing.T) {
	sp := arch.TableSpace()
	// Index 0 is the all-minimum corner: exactly one +1 neighbor per
	// non-pinned axis (5 of them).
	n0 := sp.Neighbors(0, nil)
	if len(n0) != 5 {
		t.Fatalf("Neighbors(0) = %v, want 5 entries", n0)
	}
	var coords []int
	for _, ni := range n0 {
		coords = sp.Coords(ni, coords)
		sum := 0
		for _, c := range coords {
			sum += c
		}
		if sum != 1 {
			t.Errorf("neighbor %d has coords %v, not one step from origin", ni, coords)
		}
	}
	// An interior point has two neighbors per non-pinned axis.
	mid := sp.Index([]int{1, 1, 1, 1, 1, 0})
	if got := sp.Neighbors(mid, nil); len(got) != 10 {
		t.Errorf("interior Neighbors = %v, want 10 entries", got)
	}
}

func TestSpaceIteratorLazy(t *testing.T) {
	sp := arch.TableSpace()
	seen := 0
	for i, cfg := range sp.All() {
		if cfg == nil || cfg.Name == "" {
			t.Fatalf("All() yielded empty config at %d", i)
		}
		if seen++; seen == 7 {
			break
		}
	}
	if seen != 7 {
		t.Fatalf("iterated %d points, want 7", seen)
	}
}

func TestSpaceValidateRejectsBadAxes(t *testing.T) {
	bad := []*arch.Space{
		{L2Bytes: []int64{100 << 10}},                 // non-power-of-two sets
		{Widths: []int{0}},                            // dispatch width 0
		{Clocks: []arch.DVFSPoint{{FrequencyGHz: 0}}}, // zero clock
		{ROBs: []int{-4}},                             // negative ROB
		{Clocks: []arch.DVFSPoint{ // name-colliding frequencies
			{FrequencyGHz: 2.0, VoltageV: 1.0},
			{FrequencyGHz: 2.0, VoltageV: 1.2},
		}},
		{Clocks: []arch.DVFSPoint{ // collide after %.2f rounding
			{FrequencyGHz: 2.66, VoltageV: 1.1},
			{FrequencyGHz: 2.6649, VoltageV: 1.1},
		}},
		// Every other axis's name pieces must be distinct too.
		{Widths: []int{4, 2, 4}},
		{ROBs: []int{128, 128}},
		{L2Bytes: []int64{256 << 10, 512 << 10, 256 << 10}},
		{L3Bytes: []int64{256 << 10, 512 << 10}}, // both l3_0m
		{Prefetcher: []bool{true, true}},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("space %d validated; want error", i)
		}
	}
	err := (&arch.Space{Name: "s", L3Bytes: []int64{256 << 10, 512 << 10}}).Validate()
	//mipp:allow wraperr the message naming the colliding axis and values is under test here
	if want := `config: space "s": L3 bytes 262144 and 524288 collide in the generated names`; err == nil || err.Error() != want {
		t.Errorf("L3 collision: %v, want %s", err, want)
	}
}

// TestAtIntoOverwritesDirtyConfig fills every point of two spaces, one
// with all six axes and one with pinned axes, into one Config that a point
// of a third space has dirtied first; each must equal At's fresh copy.
func TestAtIntoOverwritesDirtyConfig(t *testing.T) {
	full := &arch.Space{
		Widths:     []int{2, 6},
		ROBs:       []int{32, 256},
		L2Bytes:    []int64{128 << 10, 1 << 20},
		L3Bytes:    []int64{1 << 20, 16 << 20},
		Clocks:     []arch.DVFSPoint{{FrequencyGHz: 1.6, VoltageV: 0.95}, {FrequencyGHz: 3.2, VoltageV: 1.2}},
		Prefetcher: []bool{true, false},
	}
	pinned := &arch.Space{
		ROBs:   []int{48, 512},
		Clocks: []arch.DVFSPoint{{FrequencyGHz: 2.2, VoltageV: 1.03}},
	}
	dirty := &arch.Space{
		Widths:     []int{1},
		ROBs:       []int{16},
		L2Bytes:    []int64{8 << 20},
		L3Bytes:    []int64{128 << 20},
		Clocks:     []arch.DVFSPoint{{FrequencyGHz: 1.2, VoltageV: 0.85}},
		Prefetcher: []bool{true},
	}
	for _, sp := range []*arch.Space{full, pinned} {
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		var c arch.Config
		for i := 0; i < sp.Size(); i++ {
			dirty.AtInto(0, &c)
			c.L1D.SizeBytes, c.MemLatencyNS, c.FU[0].Latency = 1, 1, 99
			sp.AtInto(i, &c)
			if want := sp.At(i); !reflect.DeepEqual(&c, want) {
				t.Fatalf("AtInto(%d) over a dirty config = %+v\nwant %+v", i, c, want)
			}
		}
	}
}

// TestSpaceValidateAllocations: Validate probes every axis value in one
// reused Config, so a space with 50 probes allocates no more than one with
// the same clocks and nothing else to probe.
func TestSpaceValidateAllocations(t *testing.T) {
	clocks := []arch.DVFSPoint{
		{FrequencyGHz: 1.2, VoltageV: 0.85}, {FrequencyGHz: 1.6, VoltageV: 0.95},
		{FrequencyGHz: 2.0, VoltageV: 1.0}, {FrequencyGHz: 2.2, VoltageV: 1.03},
		{FrequencyGHz: 2.4, VoltageV: 1.05}, {FrequencyGHz: 2.66, VoltageV: 1.1},
		{FrequencyGHz: 2.8, VoltageV: 1.13}, {FrequencyGHz: 3.0, VoltageV: 1.16},
		{FrequencyGHz: 3.2, VoltageV: 1.2}, {FrequencyGHz: 3.33, VoltageV: 1.25},
	}
	wide := &arch.Space{
		Widths: []int{1, 2, 3, 4, 5, 6},
		ROBs:   []int{16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 512},
		L2Bytes: []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10,
			1 << 20, 2 << 20, 4 << 20, 8 << 20},
		L3Bytes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20,
			16 << 20, 32 << 20, 64 << 20, 128 << 20},
		Clocks:     clocks,
		Prefetcher: []bool{false, true},
	}
	clocksOnly := &arch.Space{Clocks: clocks}
	allocs := func(sp *arch.Space) float64 {
		return testing.AllocsPerRun(20, func() {
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if w, c := allocs(wide), allocs(clocksOnly); w > c {
		t.Errorf("Validate of the wide space made %v allocations, of its clocks alone %v: probes allocate", w, c)
	}
}
