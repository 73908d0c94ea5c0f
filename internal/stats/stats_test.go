package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestAbsErr(t *testing.T) {
	if e := AbsErr(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("AbsErr = %v", e)
	}
	if e := AbsErr(90, 100); math.Abs(e-0.1) > 1e-12 {
		t.Errorf("AbsErr = %v", e)
	}
	if !math.IsInf(AbsErr(1, 0), 1) {
		t.Error("AbsErr with zero actual should be +Inf")
	}
	if AbsErr(0, 0) != 0 {
		t.Error("AbsErr(0,0) should be 0")
	}
}

func TestPercentileAndBox(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	b := Box(xs)
	if b.Lo != 1 || b.Hi != 5 || b.Median != 3 || b.N != 5 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 > b.Median || b.Median > b.Q3 {
		t.Error("quartiles out of order")
	}
}

func TestBoxQuickProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		b := Box(xs)
		return b.Lo <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 &&
			b.Q3 <= b.Hi && b.Lo <= b.Mean && b.Mean <= b.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitLinearRecoversLine(t *testing.T) {
	var xs, ys []float64
	for i := 0; i < 50; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 3+2*x)
	}
	f := FitLinear(xs, ys)
	if math.Abs(f.A-3) > 1e-9 || math.Abs(f.B-2) > 1e-9 {
		t.Errorf("fit = %+v, want A=3 B=2", f)
	}
	if f.R2 < 0.999 {
		t.Errorf("R2 = %v", f.R2)
	}
}

func TestFitLogRecoversCurve(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{16, 32, 64, 128, 256} {
		xs = append(xs, x)
		ys = append(ys, 5*math.Log(x)+1)
	}
	f := FitLog(xs, ys)
	if math.Abs(f.A-5) > 1e-9 || math.Abs(f.B-1) > 1e-9 {
		t.Errorf("log fit = %+v", f)
	}
	if v := f.Eval(100); math.Abs(v-(5*math.Log(100)+1)) > 1e-9 {
		t.Errorf("Eval(100) = %v", v)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if p := Pearson(xs, ys); math.Abs(p-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", p)
	}
	neg := []float64{8, 6, 4, 2}
	if p := Pearson(xs, neg); math.Abs(p+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", p)
	}
	if Pearson(xs, []float64{1, 1, 1, 1}) != 0 {
		t.Error("constant series should give 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	h.Add(5)
	h.Add(5)
	h.Add(10)
	if h.Total() != 3 || h.Count(5) != 2 || h.Fraction(10) != 1.0/3 {
		t.Errorf("histogram state wrong: total=%v", h.Total())
	}
	if m := h.Mean(); math.Abs(m-20.0/3) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	keys := h.Keys()
	if len(keys) != 2 || keys[0] != 5 || keys[1] != 10 {
		t.Errorf("keys = %v", keys)
	}
	top := h.TopK(1)
	if len(top) != 1 || top[0] != 5 {
		t.Errorf("topk = %v", top)
	}
}

func TestHistogramCCDF(t *testing.T) {
	h := NewHistogram()
	for _, k := range []int64{1, 2, 2, 4} {
		h.Add(k)
	}
	keys, frac := h.CCDF()
	// P(x > 1) = 3/4, P(x > 2) = 1/4, P(x > 4) = 0.
	want := []float64{0.75, 0.25, 0}
	for i := range keys {
		if math.Abs(frac[i]-want[i]) > 1e-12 {
			t.Errorf("ccdf[%d] = %v, want %v", keys[i], frac[i], want[i])
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	h.AddWeighted(-3, 2.5)
	h.Add(7)
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHistogram()
	if err := h2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if h2.Total() != h.Total() || h2.Count(-3) != 2.5 || h2.Count(7) != 1 {
		t.Errorf("round trip lost data: %v", h2)
	}
}

func TestCDFAndFractionBelow(t *testing.T) {
	xs := []float64{0.3, 0.1, 0.2}
	pts, probs := CDF(xs)
	if pts[0] != 0.1 || probs[2] != 1 {
		t.Errorf("cdf = %v %v", pts, probs)
	}
	if f := FractionBelow(xs, 0.2); math.Abs(f-2.0/3) > 1e-12 {
		t.Errorf("FractionBelow = %v", f)
	}
}
