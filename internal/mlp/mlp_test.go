package mlp

import (
	"testing"

	"mipp/internal/config"
	"mipp/internal/prefetch"
	"mipp/internal/profiler"
	"mipp/internal/statstack"
	"mipp/internal/workload"
)

func paramsFor(cfg *config.Config, mode Mode) Params {
	return Params{
		ROB:        cfg.ROB,
		MSHRs:      cfg.MSHRs,
		MemLatency: cfg.MemConfig().LatencyCycles,
		LLCLines:   float64(cfg.L3.Lines()),
		LoadFrac:   0.3,
		Prefetch:   cfg.Prefetcher,
		Mode:       mode,
	}
}

func evalWorkload(t *testing.T, name string, mode Mode) []MicroMem {
	t.Helper()
	s := workload.MustGenerate(name, 60_000, 0)
	p := profiler.Run(s, profiler.Options{})
	cfg := config.Reference()
	pred := statstack.Predict(p, cfg.CacheLevels(), cfg.L1I)
	prm := paramsFor(cfg, mode)
	prm.LoadFrac = p.LoadFrac()
	var out []MicroMem
	for _, m := range p.Micros {
		out = append(out, Evaluate(p, m, pred.Curve, prm))
	}
	return out
}

func TestMLPAlwaysAtLeastOne(t *testing.T) {
	for _, mode := range []Mode{ColdMiss, StrideMLP, None} {
		for _, mm := range evalWorkload(t, "gcc", mode) {
			if mm.MLP < 1 {
				t.Fatalf("%v: MLP %.3f < 1", mode, mm.MLP)
			}
		}
	}
}

func TestStreamingMLPExceedsChasing(t *testing.T) {
	stream := evalWorkload(t, "libquantum", StrideMLP)
	chase := evalWorkload(t, "mcf", StrideMLP)
	avg := func(ms []MicroMem) float64 {
		s, w := 0.0, 0.0
		for _, m := range ms {
			miss := m.MissPerLoad * m.Loads
			s += m.MLP * miss
			w += miss
		}
		if w == 0 {
			return 1
		}
		return s / w
	}
	if avg(stream) <= avg(chase)+0.5 {
		t.Errorf("libquantum MLP %.2f should clearly exceed mcf %.2f", avg(stream), avg(chase))
	}
	if avg(chase) > 2.0 {
		t.Errorf("single-chain mcf MLP %.2f should stay near 1", avg(chase))
	}
}

func TestMSHRCapBounds(t *testing.T) {
	prm := Params{MSHRs: 10, MemLatency: 200}
	if got := mshrCap(5, prm); got != 5 {
		t.Errorf("below cap changed: %v", got)
	}
	capped := mshrCap(40, prm)
	if capped < 10 || capped > 15 {
		t.Errorf("soft cap of raw 40 = %v, want within [10, 15]", capped)
	}
	// Monotone in raw.
	if mshrCap(20, prm) > capped {
		t.Error("cap not monotone")
	}
}

func TestBusLatencyEquation(t *testing.T) {
	// Eq 4.5: (MLP'+1)/2 * transfer.
	if got := BusLatency(1, 8); got != 8 {
		t.Errorf("single access bus latency %v, want 8", got)
	}
	if got := BusLatency(3, 8); got != 16 {
		t.Errorf("MLP'=3 bus latency %v, want 16", got)
	}
	if got := BusLatency(0.5, 8); got != 8 {
		t.Errorf("sub-1 MLP' clamps to one transfer: %v", got)
	}
}

func TestRescaleForStores(t *testing.T) {
	if got := RescaleForStores(2, 100, 50); got != 3 {
		t.Errorf("Eq 4.6 rescale = %v, want 3", got)
	}
	if got := RescaleForStores(2, 0, 50); got != 2 {
		t.Errorf("no load misses should leave MLP: %v", got)
	}
}

func TestPrefetcherCoversStreaming(t *testing.T) {
	cfg := config.ReferenceWithPrefetcher()
	s := workload.MustGenerate("libquantum", 60_000, 0)
	p := profiler.Run(s, profiler.Options{})
	pred := statstack.Predict(p, cfg.CacheLevels(), cfg.L1I)
	prm := paramsFor(cfg, StrideMLP)
	prm.LoadFrac = p.LoadFrac()
	prm.Prefetch = prefetch.DefaultConfig()
	var covered, misses float64
	for _, m := range p.Micros {
		mm := Evaluate(p, m, pred.Curve, prm)
		miss := mm.MissPerLoad * mm.Loads
		covered += (mm.PrefetchTimely + mm.PrefetchPartial) * miss
		misses += miss
	}
	if misses == 0 {
		t.Fatal("no misses predicted")
	}
	if covered/misses < 0.5 {
		t.Errorf("prefetch coverage %.2f for pure streaming, want > 0.5", covered/misses)
	}
}

func TestPrefetcherIgnoresPointerChasing(t *testing.T) {
	cfg := config.ReferenceWithPrefetcher()
	s := workload.MustGenerate("mcf", 60_000, 0)
	p := profiler.Run(s, profiler.Options{})
	pred := statstack.Predict(p, cfg.CacheLevels(), cfg.L1I)
	prm := paramsFor(cfg, StrideMLP)
	prm.LoadFrac = p.LoadFrac()
	prm.Prefetch = prefetch.DefaultConfig()
	var covered, misses float64
	for _, m := range p.Micros {
		mm := Evaluate(p, m, pred.Curve, prm)
		miss := mm.MissPerLoad * mm.Loads
		covered += (mm.PrefetchTimely + mm.PrefetchPartial) * miss
		misses += miss
	}
	if misses > 0 && covered/misses > 0.3 {
		t.Errorf("prefetch coverage %.2f for random pointer chase, want < 0.3", covered/misses)
	}
}

func TestMispredictWindowTruncation(t *testing.T) {
	prm := Params{ROB: 128, MispredictEvery: 30}
	if w := prm.window(); w != 30 {
		t.Errorf("window = %d, want 30", w)
	}
	prm.MispredictEvery = 500
	if w := prm.window(); w != 128 {
		t.Errorf("window = %d, want ROB 128", w)
	}
	prm.MispredictEvery = 2
	if w := prm.window(); w != 8 {
		t.Errorf("window floor = %d, want 8", w)
	}
}
