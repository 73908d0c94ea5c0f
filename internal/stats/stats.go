// Package stats provides the small statistical toolkit the modeling framework
// relies on: histograms and empirical distributions, least-squares linear and
// logarithmic fits (dependence-chain interpolation, branch-entropy model),
// box-and-whiskers summaries, cumulative error distributions and the error
// metrics used throughout the evaluation chapters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// AbsErr returns |predicted-actual| / |actual|, the relative error metric the
// paper reports everywhere. A zero actual with nonzero predicted yields +Inf.
func AbsErr(predicted, actual float64) float64 {
	if actual == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-actual) / math.Abs(actual)
}

// percentileSorted returns the p-th percentile, 0 < p < 100, of sorted s by
// linear interpolation between closest ranks.
func percentileSorted(s []float64, p float64) float64 {
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// BoxStats is a five-number summary plus mean, matching the box-and-whiskers
// plots of Figures 3.7, 3.10, 6.5 and 6.9.
type BoxStats struct {
	Mean   float64
	Median float64
	Q1     float64 // first quartile
	Q3     float64 // third quartile
	P99    float64 // 99th percentile (whisker in Fig 3.7 style plots)
	Lo     float64 // minimum
	Hi     float64 // maximum
	N      int
}

// Box computes a BoxStats summary of xs.
func Box(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return BoxStats{
		Mean:   Mean(s),
		Median: percentileSorted(s, 50),
		Q1:     percentileSorted(s, 25),
		Q3:     percentileSorted(s, 75),
		P99:    percentileSorted(s, 99),
		Lo:     s[0],
		Hi:     s[len(s)-1],
		N:      len(s),
	}
}

// String formats a BoxStats as a compact single-line summary.
func (b BoxStats) String() string {
	return fmt.Sprintf("mean=%.4f med=%.4f q1=%.4f q3=%.4f p99=%.4f min=%.4f max=%.4f n=%d",
		b.Mean, b.Median, b.Q1, b.Q3, b.P99, b.Lo, b.Hi, b.N)
}

// CDF returns the empirical cumulative distribution of xs evaluated at the
// sorted sample points: pairs (x_i, (i+1)/n). Used for the cumulative error
// distributions of Figures 6.4, 6.8 and 6.17.
func CDF(xs []float64) (points []float64, probs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	probs = make([]float64, len(s))
	for i := range s {
		probs[i] = float64(i+1) / float64(len(s))
	}
	return s, probs
}

// FractionBelow returns the fraction of xs that are <= limit.
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It is the phase-accuracy coefficient (PAC) used in the phase analysis of
// §6.5. Returns 0 if either series is constant or lengths mismatch.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LinearFit is a y = A + B*x least-squares fit.
type LinearFit struct {
	A, B float64
	R2   float64 // coefficient of determination
}

// FitLinear computes the ordinary least-squares line through (xs, ys).
// It is used to build the branch-entropy → misprediction-rate model of
// Figure 3.9. Returns a flat fit when fewer than two distinct points exist.
func FitLinear(xs, ys []float64) LinearFit {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return LinearFit{A: Mean(ys)}
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{A: Mean(ys)}
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	// R^2 against the mean model.
	my := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		e := ys[i] - (a + b*xs[i])
		ssRes += e * e
		d := ys[i] - my
		ssTot += d * d
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{A: a, B: b, R2: r2}
}

// Eval evaluates the fitted line at x.
func (f LinearFit) Eval(x float64) float64 { return f.A + f.B*x }

// LogFit is a y = a*log(x) + b least-squares fit, the functional form the
// paper uses to interpolate dependence-chain lengths between profiled ROB
// sizes (Equation 5.2).
type LogFit struct {
	A, B float64
}

// FitLog computes the least-squares fit of y = A*log(x) + B following the
// closed forms of Equations 5.3 and 5.4. xs must be positive.
func FitLog(xs, ys []float64) LogFit {
	if len(xs) != len(ys) || len(xs) == 0 {
		return LogFit{}
	}
	if len(xs) == 1 {
		return LogFit{A: 0, B: ys[0]}
	}
	n := float64(len(xs))
	var slx, sy, slx2, slxy float64
	for i := range xs {
		lx := math.Log(xs[i])
		slx += lx
		sy += ys[i]
		slx2 += lx * lx
		slxy += lx * ys[i]
	}
	den := n*slx2 - slx*slx
	if den == 0 {
		return LogFit{A: 0, B: sy / n}
	}
	a := (n*slxy - slx*sy) / den
	b := (sy - a*slx) / n
	return LogFit{A: a, B: b}
}

// Eval evaluates the fitted curve at x (x must be positive).
func (f LogFit) Eval(x float64) float64 { return f.A*math.Log(x) + f.B }

// Histogram is a sparse integer-keyed frequency count with float weights,
// the common shape of the profiler's distributions (reuse distances, strides,
// dependence-path lengths, load spacings).
type Histogram struct {
	counts map[int64]float64
	total  float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int64]float64)}
}

// Add increments the count of key by one.
func (h *Histogram) Add(key int64) { h.AddWeighted(key, 1) }

// AddWeighted increments the count of key by w.
func (h *Histogram) AddWeighted(key int64, w float64) {
	h.counts[key] += w
	h.total += w
}

// Total returns the sum of all weights.
func (h *Histogram) Total() float64 { return h.total }

// Count returns the weight recorded for key.
func (h *Histogram) Count(key int64) float64 { return h.counts[key] }

// Keys returns the distinct keys in ascending order.
func (h *Histogram) Keys() []int64 {
	ks := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// Fraction returns the weight of key as a fraction of the total.
func (h *Histogram) Fraction(key int64) float64 {
	if h.total == 0 {
		return 0
	}
	return h.counts[key] / h.total
}

// Mean returns the weighted mean of the keys.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	s := 0.0
	for k, w := range h.counts {
		s += float64(k) * w
	}
	return s / h.total
}

// Merge adds all entries of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for k, w := range other.counts {
		h.AddWeighted(k, w)
	}
}

// Scale multiplies every weight by f.
func (h *Histogram) Scale(f float64) {
	for k := range h.counts {
		h.counts[k] *= f
	}
	h.total *= f
}

// Len returns the number of distinct keys.
func (h *Histogram) Len() int { return len(h.counts) }

// TopK returns the k keys with the largest weights, in descending weight
// order (ties broken by ascending key). Used by the stride classifier.
func (h *Histogram) TopK(k int) []int64 {
	type kv struct {
		key int64
		w   float64
	}
	all := make([]kv, 0, len(h.counts))
	for key, w := range h.counts {
		all = append(all, kv{key, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].key < all[j].key
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].key
	}
	return out
}

// CCDF returns, for the sorted keys, the fraction of total weight with key
// strictly greater than each key. This is the complementary CDF StatStack
// needs over reuse distances.
func (h *Histogram) CCDF() (keys []int64, frac []float64) {
	keys = h.Keys()
	frac = make([]float64, len(keys))
	if h.total == 0 {
		return keys, frac
	}
	// Walk from the largest key down, accumulating weight.
	acc := 0.0
	for i := len(keys) - 1; i >= 0; i-- {
		frac[i] = acc / h.total
		acc += h.counts[keys[i]]
	}
	return keys, frac
}
