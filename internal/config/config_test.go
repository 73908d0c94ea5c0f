package config

import (
	"fmt"
	"reflect"
	"testing"

	"mipp/internal/trace"
)

func TestReferenceValidates(t *testing.T) {
	for _, c := range []*Config{Reference(), ReferenceWithPrefetcher(), LowPower()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestDesignSpaceSizeAndValidity(t *testing.T) {
	space := DesignSpace()
	if len(space) != 243 {
		t.Fatalf("design space has %d points, want 3^5 = 243", len(space))
	}
	names := map[string]bool{}
	for _, c := range space {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if names[c.Name] {
			t.Errorf("duplicate config name %s", c.Name)
		}
		names[c.Name] = true
	}
}

// eagerDesignSpace is the direct nested-loop enumeration of Table 6.3, the
// reference DesignSpace's materialized TableSpace must reproduce.
func eagerDesignSpace() []*Config {
	widths := []int{2, 4, 6}
	robs := []int{64, 128, 256}
	l2s := []int64{128 << 10, 256 << 10, 512 << 10}
	l3s := []int64{2 << 20, 4 << 20, 8 << 20}
	freqs := []float64{2.0, 2.66, 3.33}
	volts := []float64{1.0, 1.1, 1.25}

	var out []*Config
	for _, w := range widths {
		for _, rob := range robs {
			for _, l2 := range l2s {
				for _, l3 := range l3s {
					for fi, f := range freqs {
						c := Reference()
						c.Name = fmt.Sprintf("w%d-rob%d-l2_%dk-l3_%dm-f%.2f",
							w, rob, l2>>10, l3>>20, f)
						c.DispatchWidth = w
						c.Ports = portsForWidth(w)
						scaleWindow(c, rob)
						c.L2.SizeBytes = l2
						c.L3.SizeBytes = l3
						c.FrequencyGHz = f
						c.VoltageV = volts[fi]
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// TestDesignSpaceMatchesEagerEnumeration pins DesignSpace to the nested-loop
// reference, names included, and checks that no two configurations share a
// port map: callers may mutate what DesignSpace returns.
func TestDesignSpaceMatchesEagerEnumeration(t *testing.T) {
	got, want := DesignSpace(), eagerDesignSpace()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DesignSpace differs from the eager Table 6.3 enumeration")
	}
	for i := 1; i < len(got); i++ {
		if &got[i].Ports[0] == &got[i-1].Ports[0] {
			t.Fatalf("configs %d and %d share a port map", i-1, i)
		}
	}
}

func TestMemConfigScalesWithFrequency(t *testing.T) {
	c := Reference()
	base := c.MemConfig().LatencyCycles
	c.FrequencyGHz = 2 * c.FrequencyGHz
	if got := c.MemConfig().LatencyCycles; got < base*2-2 || got > base*2+2 {
		t.Errorf("doubling frequency should double memory cycles: %d -> %d", base, got)
	}
}

func TestPortsCoverAllClasses(t *testing.T) {
	for _, w := range []int{2, 4, 6} {
		c := Reference()
		c.DispatchWidth = w
		c.Ports = portsForWidth(w)
		for cl := trace.Class(0); cl < trace.NumClasses; cl++ {
			if c.UnitCount(cl) == 0 {
				t.Errorf("width %d: class %v has no port", w, cl)
			}
		}
	}
}

func TestDVFS(t *testing.T) {
	pts := DVFSPoints()
	if len(pts) != 5 {
		t.Fatalf("DVFS points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].FrequencyGHz <= pts[i-1].FrequencyGHz || pts[i].VoltageV < pts[i-1].VoltageV {
			t.Error("DVFS points must have increasing f and non-decreasing V")
		}
	}
	c := WithDVFS(Reference(), pts[0])
	if c.FrequencyGHz != pts[0].FrequencyGHz || c.VoltageV != pts[0].VoltageV {
		t.Error("WithDVFS did not apply the point")
	}
	if Reference().FrequencyGHz == c.FrequencyGHz {
		t.Error("WithDVFS mutated the base config")
	}
}
