// Package dse implements the design-space exploration machinery of
// Chapter 7: Pareto frontiers over (execution time, power), the pruning
// quality metrics — sensitivity, specificity, accuracy and the hypervolume
// ratio (HVR, Figure 7.8) — and helpers for power-constrained optimization
// (Table 7.1) and ED²P-based DVFS selection (§7.3).
package dse

import (
	"cmp"
	"math"
	"slices"
)

// Point is one design evaluated for one workload: lower Time and lower
// Power are better.
type Point struct {
	Config string
	Time   float64 // seconds (or any monotone performance cost)
	Power  float64 // watts
}

// Dominates reports whether a dominates b (no worse in both, better in one).
func (a Point) Dominates(b Point) bool {
	if a.Time <= b.Time && a.Power <= b.Power {
		return a.Time < b.Time || a.Power < b.Power
	}
	return false
}

// ParetoFront returns the non-dominated subset of points, sorted by Time:
// the points folded into a Staircase in input order, so of two points with
// exactly the same time and power the first one is kept. It returns nil for
// no points.
func ParetoFront(points []Point) []Point {
	var s Staircase
	for i, p := range points {
		s.Add(p.Time, p.Power, i, i)
	}
	if s.Len() == 0 {
		return nil
	}
	front := make([]Point, s.Len())
	for i := range front {
		front[i] = points[s.Pos(i)]
	}
	return front
}

// Staircase is the Pareto front of a growing point set on (time, power):
// the non-dominated subset of the points added so far, ordered by time
// ascending with power strictly descending. Of two points with exactly the
// same time and power the one with the lower tie rank is the member, so
// with distinct ranks the front is a pure function of the set of points,
// whatever order or chunks they are added in. The zero value is empty.
//
// Each point either falls to one binary-search dominance probe or splices
// in, evicting the members it now dominates. Fronts are small (tens of
// points for thousands added), so adding n points costs O(n log k), and a
// caller that grows its point set can fold in only the new points.
type Staircase struct {
	steps []step
}

// step is one member: its time, power and tie rank, and pos, the caller's
// handle on the point.
type step struct {
	t, w     float64
	tie, pos int
}

func stepByTime(s step, t float64) int { return cmp.Compare(s.t, t) }

// Add folds the point (t, w) into the front and reports whether the front
// changed. tie ranks the point against a member with exactly the same time
// and power, the lower rank winning; pos is what Pos returns for it.
//
//mipp:hotpath
func (s *Staircase) Add(t, w float64, tie, pos int) bool {
	p := step{t: t, w: w, tie: tie, pos: pos}
	lo, _ := slices.BinarySearchFunc(s.steps, t, stepByTime)
	if lo < len(s.steps) && s.steps[lo].t == t {
		m := &s.steps[lo]
		if m.w < w {
			return false // dominated: same time, less power already held
		}
		if m.w == w {
			if tie >= m.tie {
				return false
			}
			*m = p // exact tie: the lower rank is the member
			return true
		}
		// p dominates m (same time, less power): replace it, then fall
		// through to evict any later members p also dominates.
		*m = p
	} else {
		if lo > 0 && s.steps[lo-1].w <= w {
			return false // dominated by the member just left of it
		}
		s.steps = slices.Insert(s.steps, lo, p)
	}
	hi := lo + 1
	for hi < len(s.steps) && s.steps[hi].w >= w {
		hi++
	}
	s.steps = slices.Delete(s.steps, lo+1, hi)
	return true
}

// Len returns the number of members.
func (s *Staircase) Len() int { return len(s.steps) }

// Pos returns the pos of the i-th member by ascending time.
func (s *Staircase) Pos(i int) int { return s.steps[i].pos }

// Metrics summarizes how well a predicted Pareto front matches the true one
// (§7.4): the predicted-optimal configs are a classifier over the design
// space, scored against the actually-optimal set.
type Metrics struct {
	Sensitivity float64 // true positives / actual positives
	Specificity float64 // true negatives / actual negatives
	Accuracy    float64 // correct classifications / all
	HVR         float64 // hypervolume(predicted picks) / hypervolume(true front)
}

// Evaluate compares a predicted design-space evaluation against the true
// one. `predicted` and `actual` must cover the same configs (matched by
// Config name); the predicted front's configs are looked up in the actual
// space for the HVR computation, exactly as the thesis evaluates pruning: a
// designer simulates the predicted picks and obtains their *actual*
// time/power.
func Evaluate(predicted, actual []Point) Metrics {
	actualByName := make(map[string]Point, len(actual))
	for _, p := range actual {
		actualByName[p.Config] = p
	}
	trueFront := ParetoFront(actual)
	predFront := ParetoFront(predicted)

	inTrue := make(map[string]bool, len(trueFront))
	for _, p := range trueFront {
		inTrue[p.Config] = true
	}
	inPred := make(map[string]bool, len(predFront))
	for _, p := range predFront {
		inPred[p.Config] = true
	}

	var tp, fp, tn, fn float64
	for _, p := range actual {
		switch {
		case inTrue[p.Config] && inPred[p.Config]:
			tp++
		case inTrue[p.Config] && !inPred[p.Config]:
			fn++
		case !inTrue[p.Config] && inPred[p.Config]:
			fp++
		default:
			tn++
		}
	}
	var m Metrics
	if tp+fn > 0 {
		m.Sensitivity = tp / (tp + fn)
	}
	if tn+fp > 0 {
		m.Specificity = tn / (tn + fp)
	}
	if n := tp + fp + tn + fn; n > 0 {
		m.Accuracy = (tp + tn) / n
	}

	// HVR: hypervolume of the *actual* points of the predicted picks,
	// relative to the true front's hypervolume (Figure 7.8). The
	// reference point is the worst corner of the actual space.
	ref := worstCorner(actual)
	var picks []Point
	for _, p := range predFront {
		if ap, ok := actualByName[p.Config]; ok {
			picks = append(picks, ap)
		}
	}
	hvTrue := Hypervolume(trueFront, ref)
	if hvTrue > 0 {
		m.HVR = Hypervolume(ParetoFront(picks), ref) / hvTrue
	}
	return m
}

func worstCorner(points []Point) Point {
	ref := Point{Time: 0, Power: 0}
	for _, p := range points {
		if p.Time > ref.Time {
			ref.Time = p.Time
		}
		if p.Power > ref.Power {
			ref.Power = p.Power
		}
	}
	// Nudge outwards so boundary points contribute volume.
	ref.Time *= 1.01
	ref.Power *= 1.01
	return ref
}

// Hypervolume computes the 2D dominated hypervolume of a front with respect
// to a reference (worst) point. Points beyond the reference contribute
// nothing.
func Hypervolume(front []Point, ref Point) float64 {
	f := ParetoFront(front)
	hv := 0.0
	prevPower := ref.Power
	for _, p := range f {
		if p.Time >= ref.Time || p.Power >= prevPower {
			continue
		}
		hv += (ref.Time - p.Time) * (prevPower - p.Power)
		prevPower = p.Power
	}
	return hv
}

// BestUnderPowerCap returns the fastest point whose power does not exceed
// cap (Table 7.1's optimization); ok is false when nothing fits.
func BestUnderPowerCap(points []Point, cap float64) (Point, bool) {
	best := Point{Time: math.Inf(1)}
	ok := false
	for _, p := range points {
		if p.Power <= cap && p.Time < best.Time {
			best = p
			ok = true
		}
	}
	return best, ok
}

// BestByED2P returns the point minimizing energy-delay-squared
// (power × time³, since E = P·t), the DVFS selection metric of §7.3.
func BestByED2P(points []Point) (Point, bool) {
	best := Point{}
	bestV := math.Inf(1)
	ok := false
	for _, p := range points {
		v := p.Power * p.Time * p.Time * p.Time
		if v < bestV {
			best, bestV, ok = p, v, true
		}
	}
	return best, ok
}
