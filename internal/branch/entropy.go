package branch

import (
	"sort"

	"mipp/internal/stats"
	"mipp/internal/trace"
)

// Entropy computes the linear branch entropy of a dynamic branch stream
// (Equations 3.13-3.15). For every (static branch, local history pattern)
// pair it tracks taken/not-taken counts; the per-pair entropy
// E(p) = 2*min(p, 1-p) is averaged over all dynamically executed branches.
//
// histBits is the local-history length; the paper's model uses a fixed
// history length and maps the resulting entropy to misprediction rates of
// concrete predictors with a per-predictor linear fit.
func Entropy(s *trace.Stream, histBits uint) float64 {
	type rec struct{ taken, notTaken uint32 }
	// Key: static branch id combined with its local history pattern.
	counts := make(map[uint64]*rec)
	hists := make(map[uint32]uint64)
	mask := maskBits(histBits)
	var total float64
	for i := range s.Uops {
		u := &s.Uops[i]
		if u.Class != trace.Branch {
			continue
		}
		h := hists[u.Static] & mask
		key := uint64(u.Static)<<uint64(histBits) | h
		r := counts[key]
		if r == nil {
			r = &rec{}
			counts[key] = r
		}
		if u.Taken {
			r.taken++
		} else {
			r.notTaken++
		}
		hists[u.Static] = hists[u.Static]<<1 | bit(u.Taken)
		total++
	}
	if total == 0 {
		return 0
	}
	// E = (1/Nb) Σ_b Σ_H n(b,H) · E(p(b,H)), summed in key order: float
	// addition is not associative, so map order would change the result.
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	e := 0.0
	for _, k := range keys {
		r := counts[k]
		n := float64(r.taken + r.notTaken)
		p := float64(r.taken) / n
		q := p
		if 1-p < q {
			q = 1 - p
		}
		e += n * 2 * q
	}
	return e / total
}

// MissRate simulates predictor p over the branches of s and returns the
// misprediction ratio (mispredicted branches / dynamic branches) and the
// number of dynamic branches.
func MissRate(p Predictor, s *trace.Stream) (rate float64, branches int64) {
	var miss int64
	for i := range s.Uops {
		u := &s.Uops[i]
		if u.Class != trace.Branch {
			continue
		}
		branches++
		if p.Lookup(u.PC) != u.Taken {
			miss++
		}
		p.Update(u.PC, u.Taken)
	}
	if branches == 0 {
		return 0, 0
	}
	return float64(miss) / float64(branches), branches
}

// MPKI simulates predictor p over s and returns mispredictions per kilo
// macro-instruction, the metric of Figure 3.10.
func MPKI(p Predictor, s *trace.Stream) float64 {
	rate, branches := MissRate(p, s)
	instr := s.Instructions()
	if instr == 0 {
		return 0
	}
	return rate * float64(branches) / float64(instr) * 1000
}

// EntropyModel maps linear branch entropy to the misprediction rate of one
// specific predictor through the linear fit of Figure 3.9. Training the
// model is a one-time cost per predictor; afterwards misprediction rates for
// any application follow from its (micro-architecture independent) entropy.
type EntropyModel struct {
	PredictorName string
	Fit           stats.LinearFit
	HistBits      uint
}

// Predict returns the estimated misprediction rate for a workload with the
// given linear branch entropy, clamped to [0, 1].
func (m *EntropyModel) Predict(entropy float64) float64 {
	r := m.Fit.Eval(entropy)
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// TrainingPoint is one (entropy, missrate) observation used to fit an
// EntropyModel.
type TrainingPoint struct {
	Workload string
	Entropy  float64
	MissRate float64
}

// Train builds the entropy→missrate model for a predictor following the flow
// of Figure 3.8: for every training stream, profile the linear branch
// entropy and simulate the predictor, then least-squares fit a line through
// the observations. newPredictor must return a fresh predictor per stream.
func Train(name string, newPredictor func() Predictor, streams []*trace.Stream, histBits uint) (*EntropyModel, []TrainingPoint) {
	pts := make([]TrainingPoint, 0, len(streams))
	xs := make([]float64, 0, len(streams))
	ys := make([]float64, 0, len(streams))
	for _, s := range streams {
		e := Entropy(s, histBits)
		r, branches := MissRate(newPredictor(), s)
		if branches == 0 {
			continue
		}
		pts = append(pts, TrainingPoint{Workload: s.Name, Entropy: e, MissRate: r})
		xs = append(xs, e)
		ys = append(ys, r)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Entropy < pts[j].Entropy })
	return &EntropyModel{
		PredictorName: name,
		Fit:           stats.FitLinear(xs, ys),
		HistBits:      histBits,
	}, pts
}
