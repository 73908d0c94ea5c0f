package dse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestParetoFrontBasics(t *testing.T) {
	pts := []Point{
		{"a", 1, 10},
		{"b", 2, 5},
		{"c", 3, 1},
		{"d", 2.5, 6}, // dominated by b
		{"e", 1, 12},  // dominated by a
	}
	front := ParetoFront(pts)
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3: %v", len(front), front)
	}
	for _, p := range front {
		for _, q := range pts {
			if q.Dominates(p) {
				t.Errorf("front point %s dominated by %s", p.Config, q.Config)
			}
		}
	}
}

func TestParetoFrontQuickProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var pts []Point
		for i := 0; i+1 < len(raw); i += 2 {
			pts = append(pts, Point{
				Config: fmt.Sprintf("c%d", i),
				Time:   float64(raw[i]%100) + 1,
				Power:  float64(raw[i+1]%100) + 1,
			})
		}
		front := ParetoFront(pts)
		// No front point is dominated by any point.
		for _, p := range front {
			for _, q := range pts {
				if q.Dominates(p) {
					return false
				}
			}
		}
		return len(front) <= len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceFront is the sort-and-scan Pareto front: sort by (Time, Power)
// and keep each strict power improver. The stable sort keeps the first of
// an exact tie in input order, the rule ParetoFront documents.
func referenceFront(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Time != sorted[j].Time {
			return sorted[i].Time < sorted[j].Time
		}
		return sorted[i].Power < sorted[j].Power
	})
	var front []Point
	bestPower := math.Inf(1)
	for _, p := range sorted {
		if p.Power < bestPower {
			front = append(front, p)
			bestPower = p.Power
		}
	}
	return front
}

// TestParetoFrontMatchesReference holds ParetoFront to the sort-and-scan
// reference on quantized random inputs, where duplicated times and exactly
// duplicated points are common. Folding the same points into a Staircase in
// a shuffled order, each ranked by its input position, must give the same
// front.
func TestParetoFrontMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		pts := make([]Point, rng.Intn(100))
		for i := range pts {
			pts[i] = Point{
				Config: fmt.Sprintf("c%d", i),
				Time:   float64(1+rng.Intn(8)) * 0.25,
				Power:  float64(1+rng.Intn(8)) * 0.5,
			}
			if i > 0 && rng.Intn(5) == 0 {
				pts[i].Time, pts[i].Power = pts[i-1].Time, pts[i-1].Power
			}
		}
		got, want := ParetoFront(pts), referenceFront(pts)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: front\n%v\nwant\n%v", trial, got, want)
		}
		var s Staircase
		for _, i := range rng.Perm(len(pts)) {
			s.Add(pts[i].Time, pts[i].Power, i, i)
		}
		shuffled := make([]Point, s.Len())
		for i := range shuffled {
			shuffled[i] = pts[s.Pos(i)]
		}
		if !slices.Equal(shuffled, want) {
			t.Fatalf("trial %d: shuffled front\n%v\nwant\n%v", trial, shuffled, want)
		}
	}
}

// TestParetoFrontTieKeepsFirst pins the exact-tie rule: of points with the
// same time and power, the first in input order is on the front.
func TestParetoFrontTieKeepsFirst(t *testing.T) {
	pts := []Point{{"slow", 3, 1}, {"first", 1, 5}, {"second", 1, 5}, {"dominated", 2, 5}, {"third", 1, 5}}
	want := []Point{{"first", 1, 5}, {"slow", 3, 1}}
	if got := ParetoFront(pts); !slices.Equal(got, want) {
		t.Errorf("front %v, want %v", got, want)
	}
	if got := ParetoFront(nil); got != nil {
		t.Errorf("front of no points %v, want nil", got)
	}
}

func TestEvaluatePerfectPrediction(t *testing.T) {
	var pts []Point
	for i := 0; i < 20; i++ {
		pts = append(pts, Point{
			Config: fmt.Sprintf("c%d", i),
			Time:   1 + float64(i%7),
			Power:  1 + float64((i*3)%11),
		})
	}
	m := Evaluate(pts, pts)
	if m.Sensitivity != 1 || m.Specificity != 1 || m.Accuracy != 1 {
		t.Errorf("perfect prediction metrics = %+v", m)
	}
	if math.Abs(m.HVR-1) > 1e-9 {
		t.Errorf("perfect HVR = %v", m.HVR)
	}
}

func TestEvaluateNoisyPredictionDegrades(t *testing.T) {
	var act, pred []Point
	for i := 0; i < 30; i++ {
		p := Point{Config: fmt.Sprintf("c%d", i), Time: 1 + float64(i%6), Power: 1 + float64((i*7)%13)}
		act = append(act, p)
		// Noise that reorders some points.
		q := p
		q.Time *= 1 + 0.4*float64((i*5)%3-1)
		pred = append(pred, q)
	}
	m := Evaluate(pred, act)
	if m.HVR < 0 || m.HVR > 1.0001 {
		t.Errorf("HVR %v out of [0,1]", m.HVR)
	}
	if m.Accuracy < 0.3 {
		t.Errorf("accuracy %v implausibly low", m.Accuracy)
	}
}

func TestHypervolume(t *testing.T) {
	ref := Point{Time: 10, Power: 10}
	hv := Hypervolume([]Point{{"a", 5, 5}}, ref)
	if hv != 25 {
		t.Errorf("hv = %v, want 25", hv)
	}
	hv2 := Hypervolume([]Point{{"a", 5, 5}, {"b", 2, 8}}, ref)
	if hv2 <= hv {
		t.Error("adding a non-dominated point must grow the hypervolume")
	}
}

func TestBestUnderPowerCap(t *testing.T) {
	pts := []Point{{"slow-low", 10, 5}, {"fast-high", 1, 50}, {"mid", 5, 20}}
	if best, ok := BestUnderPowerCap(pts, 25); !ok || best.Config != "mid" {
		t.Errorf("cap 25 -> %v", best)
	}
	if best, ok := BestUnderPowerCap(pts, 100); !ok || best.Config != "fast-high" {
		t.Errorf("cap 100 -> %v", best)
	}
	if _, ok := BestUnderPowerCap(pts, 1); ok {
		t.Error("cap 1 should fit nothing")
	}
}

func TestBestByED2P(t *testing.T) {
	pts := []Point{{"a", 2, 10}, {"b", 1, 50}}
	// ED2P: a = 10*8 = 80, b = 50*1 = 50 -> b.
	if best, ok := BestByED2P(pts); !ok || best.Config != "b" {
		t.Errorf("ED2P best = %v", best)
	}
}
