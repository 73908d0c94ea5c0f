package profiler

import (
	"bytes"
	"encoding/json"
	"testing"

	"mipp/internal/stats"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

func TestRunBasics(t *testing.T) {
	s := workload.MustGenerate("gcc", 60_000, 0)
	p := Run(s, Options{})
	if p.TotalUops != int64(s.Len()) {
		t.Errorf("TotalUops = %d, want %d", p.TotalUops, s.Len())
	}
	if len(p.Micros) < 3 {
		t.Fatalf("only %d micro-traces", len(p.Micros))
	}
	if p.Entropy <= 0 || p.Entropy >= 1 {
		t.Errorf("entropy %v out of (0,1)", p.Entropy)
	}
	if p.LoadCount == 0 || p.StoreCount == 0 {
		t.Error("no memory accesses profiled")
	}
	// Mix fractions sum to 1.
	sum := 0.0
	for _, f := range p.Mix() {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("mix sums to %v", sum)
	}
	if upi := p.UopsPerInstruction(); upi < 1 || upi > 1.6 {
		t.Errorf("uops/instr %v", upi)
	}
}

func TestChainsOrderingAPLeCP(t *testing.T) {
	for _, name := range []string{"gamess", "mcf", "bwaves"} {
		p := Run(workload.MustGenerate(name, 40_000, 0), Options{})
		for _, rob := range []int{16, 64, 128, 256} {
			ap, _, cp := p.Chains.At(rob)
			if ap > cp+1e-9 {
				t.Errorf("%s ROB %d: AP %.2f > CP %.2f", name, rob, ap, cp)
			}
			if ap < 1 || cp < 1 {
				t.Errorf("%s ROB %d: chains below 1 (ap=%v cp=%v)", name, rob, ap, cp)
			}
		}
		// CP grows with ROB.
		_, _, cpSmall := p.Chains.At(32)
		_, _, cpBig := p.Chains.At(256)
		if cpBig < cpSmall {
			t.Errorf("%s: CP decreased with ROB: %.2f -> %.2f", name, cpSmall, cpBig)
		}
	}
}

func TestChainWorkedExample(t *testing.T) {
	// Figure 3.3's style: a-b-c independent, d<-c, e<-d, f<-c, g<-f.
	uops := []trace.Uop{
		{Class: trace.IntALU, First: true},              // a
		{Class: trace.IntALU, First: true},              // b
		{Class: trace.IntALU, First: true},              // c
		{Class: trace.Load, First: true, SrcDist1: 1},   // d <- c
		{Class: trace.IntALU, First: true, SrcDist1: 1}, // e <- d
		{Class: trace.IntALU, First: true, SrcDist1: 3}, // f <- c
		{Class: trace.Branch, First: true, SrcDist1: 1}, // g <- f
		{Class: trace.IntALU, First: true, SrcDist1: 2}, // h <- f
	}
	cs := chainBuffers(uops, []int{8})
	// Depths: 1,1,1,2,3,2,3,3 -> AP=2, CP=3, ABP=3 (g).
	if cs.AP[0] != 2 {
		t.Errorf("AP = %v, want 2", cs.AP[0])
	}
	if cs.CP[0] != 3 {
		t.Errorf("CP = %v, want 3", cs.CP[0])
	}
	if cs.ABP[0] != 3 {
		t.Errorf("ABP = %v, want 3", cs.ABP[0])
	}
}

func TestLoadDependenceHistogram(t *testing.T) {
	// load1 (l=1); alu <- load1; load2 <- alu (l=2); load3 indep (l=1).
	uops := []trace.Uop{
		{Class: trace.Load, First: true},
		{Class: trace.IntALU, First: true, SrcDist1: 1},
		{Class: trace.Load, First: true, SrcDist1: 1},
		{Class: trace.Load, First: true},
	}
	h := loadDependenceHistogram(uops, 64)
	if h.Count(1) != 2 || h.Count(2) != 1 {
		t.Errorf("f(l): l1=%v l2=%v", h.Count(1), h.Count(2))
	}
}

func TestColdTracking(t *testing.T) {
	s := workload.MustGenerate("libquantum", 40_000, 0)
	p := Run(s, Options{})
	if p.ColdLoads == 0 {
		t.Error("streaming workload must have cold loads")
	}
	if p.ColdMissAvgPerROB(128) <= 0 {
		t.Error("cold-per-ROB average should be positive")
	}
}

func TestStrideClassification(t *testing.T) {
	p := Run(workload.MustGenerate("libquantum", 40_000, 0), Options{})
	r := p.CategoryRatios()
	strided := r[CatStride] + r[CatFilter1] + r[CatFilter2] + r[CatFilter3] + r[CatFilter4]
	if strided < 0.5 {
		t.Errorf("libquantum strided ratio %.2f, want > 0.5", strided)
	}
	pr := Run(workload.MustGenerate("milc", 40_000, 0), Options{})
	rr := pr.CategoryRatios()
	if rr[CatRandom]+rr[CatUnique] < 0.3 {
		t.Errorf("milc random+unique ratio %.2f, want > 0.3", rr[CatRandom]+rr[CatUnique])
	}
}

func TestClassifyCutoffs(t *testing.T) {
	sl := &StaticLoad{Count: 10}
	sl.Strides = histFrom(map[int64]float64{8: 10})
	if c := Classify(sl); c.Category != CatStride {
		t.Errorf("single stride -> %v", c.Category)
	}
	sl.Strides = histFrom(map[int64]float64{8: 5, 16: 5})
	if c := Classify(sl); c.Category != CatFilter2 || len(c.Strides) != 2 {
		t.Errorf("two equal strides -> %v %v", c.Category, c.Strides)
	}
	sl.Strides = histFrom(map[int64]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
	if c := Classify(sl); c.Category != CatRandom {
		t.Errorf("uniform strides -> %v", c.Category)
	}
	unique := &StaticLoad{Count: 1, Strides: histFrom(nil)}
	if c := Classify(unique); c.Category != CatUnique {
		t.Errorf("unique -> %v", c.Category)
	}
}

func histFrom(m map[int64]float64) *stats.Histogram {
	h := stats.NewHistogram()
	for k, v := range m {
		h.AddWeighted(k, v)
	}
	return h
}

// TestRunDeterministic profiles every catalog workload twice and requires
// byte-identical profile JSON: an unchanged stream must keep its store
// digest, and the model must see the same inputs on every run.
func TestRunDeterministic(t *testing.T) {
	for _, name := range workload.Names() {
		s := workload.MustGenerate(name, 20_000, 0)
		first, err := json.Marshal(Run(s, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(Run(s, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: two profilings of one stream differ", name)
		}
	}
}
