package profiler

import (
	"fmt"
	"slices"

	"mipp/internal/stats"
	"mipp/internal/trace"
)

// StandardROBs is the default set of profiled ROB sizes (§5.2): every
// multiple of 16 from 16 to 256. Dependence-chain lengths for other sizes
// are interpolated with the logarithmic fit of Equation 5.2.
func StandardROBs() []int {
	robs := make([]int, 0, 16)
	for r := 16; r <= 256; r += 16 {
		robs = append(robs, r)
	}
	return robs
}

// ChainSet holds the three dependence-chain statistics of §3.3 — average
// path (AP), average branch path (ABP) and critical path (CP) — for a set of
// profiled ROB sizes.
type ChainSet struct {
	ROBs []int     `json:"robs"`
	AP   []float64 `json:"ap"`
	ABP  []float64 `json:"abp"`
	CP   []float64 `json:"cp"`
}

// newChainSet allocates a zeroed ChainSet over robs.
func newChainSet(robs []int) *ChainSet {
	return &ChainSet{
		ROBs: robs,
		AP:   make([]float64, len(robs)),
		ABP:  make([]float64, len(robs)),
		CP:   make([]float64, len(robs)),
	}
}

// At returns (AP, ABP, CP) for an arbitrary ROB size. Sizes between two
// profiled points are interpolated with a per-segment logarithmic fit
// (Equations 5.2-5.4); sizes outside the profiled range extrapolate the
// nearest segment's fit.
func (c *ChainSet) At(rob int) (ap, abp, cp float64) {
	if len(c.ROBs) == 0 {
		return 0, 0, 0
	}
	if len(c.ROBs) == 1 {
		return c.AP[0], c.ABP[0], c.CP[0]
	}
	// Find the segment [i, i+1] bracketing rob.
	i := 0
	for i < len(c.ROBs)-2 && rob > c.ROBs[i+1] {
		i++
	}
	xs := []float64{float64(c.ROBs[i]), float64(c.ROBs[i+1])}
	interp := func(ys []float64) float64 {
		fit := stats.FitLog(xs, []float64{ys[i], ys[i+1]})
		v := fit.Eval(float64(rob))
		// Chain lengths include the instruction itself, so 1 is the
		// floor; extrapolating the log fit to tiny windows can
		// otherwise go negative (§5.2).
		if v < 1 {
			v = 1
		}
		return v
	}
	return interp(c.AP), interp(c.ABP), interp(c.CP)
}

// scale divides all values by n (used to average across buffers).
func (c *ChainSet) scale(n float64) {
	if n == 0 {
		return
	}
	for i := range c.ROBs {
		c.AP[i] /= n
		c.ABP[i] /= n
		c.CP[i] /= n
	}
}

// addWeighted accumulates other × w into c (same ROB grid required).
func (c *ChainSet) addWeighted(other *ChainSet, w float64) {
	for i := range c.ROBs {
		c.AP[i] += other.AP[i] * w
		c.ABP[i] += other.ABP[i] * w
		c.CP[i] += other.CP[i] * w
	}
}

// chainBuffers computes AP/ABP/CP for every requested ROB size over the uops
// window following Algorithm 3.1: a buffer of B uops slides over the window;
// at each position the per-uop producing-chain depths are recomputed and
// averaged.
//
// The depth of a uop is 1 + the maximum depth among its in-buffer producers
// (so an independent uop has depth 1), matching the worked example of
// Figure 3.3. For a fixed start, a uop's depth depends only on the uops
// between the start and itself, so a size-B buffer's depths are the first B
// depths of the largest buffer: each start makes one pass over the largest
// buffer that fits and reads each size's running sum, maximum and branch
// sums when the pass reaches that size. Depths are small integers, so their
// sums are exact in int64 and float64 alike, and every size's result is
// bit-identical to a separate slide per size (chainsForROB, the tests'
// reference). Complexity is O(N·B) for the largest size B. A size above
// len(uops) is clamped to it (one buffer, at start 0); a non-positive size
// panics.
func chainBuffers(uops []trace.Uop, robs []int) *ChainSet {
	checkROBs(robs)
	out := newChainSet(robs)
	n := len(uops)
	if n == 0 {
		return out
	}
	// sizes holds the distinct clamped sizes ascending; slot[ri] is the
	// index in sizes of robs[ri].
	sizes := make([]int, 0, len(robs))
	for _, rob := range robs {
		sizes = append(sizes, min(rob, n))
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	slot := make([]int, len(robs))
	for ri, rob := range robs {
		slot[ri], _ = slices.BinarySearch(sizes, min(rob, n))
	}

	// Per size: AP, ABP and CP summed over buffers, and the number of
	// buffers holding a branch.
	type totals struct{ ap, abp, cp, branchBuffers float64 }
	tot := make([]totals, len(sizes))
	depth := make([]int32, sizes[len(sizes)-1])
	for start := 0; start+sizes[0] <= n; start++ {
		var sum, brSum int64
		var maxDepth, branches int32
		j := 0
		for k, b := range sizes {
			if start+b > n {
				break
			}
			for ; j < b; j++ {
				u := &uops[start+j]
				var d int32
				if p := int(u.SrcDist1); p > 0 && p <= j {
					d = depth[j-p]
				}
				if p := int(u.SrcDist2); p > 0 && p <= j {
					d = max(d, depth[j-p])
				}
				d++
				depth[j] = d
				sum += int64(d)
				maxDepth = max(maxDepth, d)
				if u.Class == trace.Branch {
					branches++
					brSum += int64(d)
				}
			}
			t := &tot[k]
			t.ap += float64(sum) / float64(b)
			t.cp += float64(maxDepth)
			if branches > 0 {
				t.abp += float64(brSum) / float64(branches)
				t.branchBuffers++
			}
		}
	}
	for ri, k := range slot {
		t, buffers := tot[k], float64(n-sizes[k]+1)
		out.AP[ri] = t.ap / buffers
		out.CP[ri] = t.cp / buffers
		if t.branchBuffers > 0 {
			out.ABP[ri] = t.abp / t.branchBuffers
		}
	}
	return out
}

// checkROBs panics on a non-positive ROB size, naming it: no buffer or
// window of that many uops exists.
func checkROBs(robs []int) {
	for _, rob := range robs {
		if rob <= 0 {
			panic(fmt.Sprintf("profiler: ROB size %d is not positive", rob))
		}
	}
}

// loadDependenceHistogram computes the inter-load dependence distribution
// f(ℓ) of §4.4 for a given ROB size: for every load, the number of loads on
// its longest producing dependence path within the last rob uops (including
// itself). ℓ=1 means the load depends on no earlier in-window load.
func loadDependenceHistogram(uops []trace.Uop, rob int) *stats.Histogram {
	h := stats.NewHistogram()
	n := len(uops)
	ldep := make([]int64, n)
	for i := range uops {
		u := &uops[i]
		var d int64
		if p := int(u.SrcDist1); p > 0 && p <= rob && i-p >= 0 {
			if dp := ldep[i-p]; dp > d {
				d = dp
			}
		}
		if p := int(u.SrcDist2); p > 0 && p <= rob && i-p >= 0 {
			if dp := ldep[i-p]; dp > d {
				d = dp
			}
		}
		if u.Class == trace.Load {
			d++
			h.Add(d)
		}
		ldep[i] = d
	}
	return h
}
