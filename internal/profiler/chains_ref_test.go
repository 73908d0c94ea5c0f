package profiler

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mipp/internal/stats"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

// chainsForROB is Algorithm 3.1 for one ROB size, the reference
// chainBuffers must match bit for bit: it slides a buffer of rob uops
// (clamped to the window) over uops and recomputes every depth at every
// start.
func chainsForROB(uops []trace.Uop, rob int) (ap, abp, cp float64) {
	n := len(uops)
	if n == 0 {
		return 0, 0, 0
	}
	b := rob
	if b > n {
		b = n
	}
	depth := make([]float64, b)
	var apSum, abpSum, cpSum float64
	var buffers, branchBuffers float64
	// Slide the buffer over [start, start+b).
	for start := 0; start+b <= n; start++ {
		var sum, maxDepth, brSum float64
		branches := 0.0
		for j := 0; j < b; j++ {
			i := start + j
			u := &uops[i]
			d := 0.0
			if p := int(u.SrcDist1); p > 0 && p <= j {
				if dp := depth[j-p]; dp > d {
					d = dp
				}
			}
			if p := int(u.SrcDist2); p > 0 && p <= j {
				if dp := depth[j-p]; dp > d {
					d = dp
				}
			}
			d++
			depth[j] = d
			sum += d
			if d > maxDepth {
				maxDepth = d
			}
			if u.Class == trace.Branch {
				branches++
				brSum += d
			}
		}
		apSum += sum / float64(b)
		cpSum += maxDepth
		if branches > 0 {
			abpSum += brSum / branches
			branchBuffers++
		}
		buffers++
	}
	if buffers == 0 {
		return 0, 0, 0
	}
	ap = apSum / buffers
	cp = cpSum / buffers
	if branchBuffers > 0 {
		abp = abpSum / branchBuffers
	}
	return ap, abp, cp
}

// referenceROBSets are the ROB size lists the reference tests run: the
// default, sizes below, at and beyond the tested windows, an unsorted list
// with a repeated size, and examples/search's 16 sizes up to 512.
var referenceROBSets = [][]int{
	StandardROBs(),
	{1, 8, 16, 64, 256, 3000},
	{256, 16, 16, 100, 1},
	{16, 24, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 512},
}

// catalogStreams returns every catalog workload at 20k uops, generated once
// per test binary.
var catalogStreams = sync.OnceValue(func() []*trace.Stream {
	var out []*trace.Stream
	for _, name := range workload.Names() {
		out = append(out, workload.MustGenerate(name, 20_000, 0))
	}
	return out
})

// TestChainBuffersMatchesReference checks the one-pass chainBuffers against
// chainsForROB bit for bit, on every catalog workload, on windows from
// empty to 2,500 uops, for each referenceROBSets entry. Each workload's
// windows start at its own offset (the first at 0, the last at 17,164), so
// the reference's cost is paid once per workload and window length.
func TestChainBuffersMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 2, 15, 16, 17, 255, 256, 257, 1000, 2500}
	type chains struct{ ap, abp, cp float64 }
	for w, s := range catalogStreams() {
		off := w * 613
		for _, n := range lengths {
			window := s.Uops[off : off+n]
			// The sets share most sizes: run the reference once per size.
			ref := make(map[int]chains)
			for _, robs := range referenceROBSets {
				got := chainBuffers(window, robs)
				for ri, rob := range robs {
					want, ok := ref[rob]
					if !ok {
						want.ap, want.abp, want.cp = chainsForROB(window, rob)
						ref[rob] = want
					}
					if math.Float64bits(got.AP[ri]) != math.Float64bits(want.ap) ||
						math.Float64bits(got.ABP[ri]) != math.Float64bits(want.abp) ||
						math.Float64bits(got.CP[ri]) != math.Float64bits(want.cp) {
						t.Fatalf("%s [%d:+%d] ROBs %v, size %d: got (%v, %v, %v), reference %+v",
							s.Name, off, n, robs, rob, got.AP[ri], got.ABP[ri], got.CP[ri], want)
					}
				}
			}
		}
	}
}

// TestColdPerROBMatchesReference checks Run's cold-miss windows against a
// window closed after every uop i with (i+1)%rob == 0, for each
// referenceROBSets entry.
func TestColdPerROBMatchesReference(t *testing.T) {
	for _, s := range catalogStreams() {
		for _, robs := range referenceROBSets {
			p := Run(s, Options{ROBs: robs})
			want := make([]*stats.Histogram, len(robs))
			for r := range want {
				want[r] = stats.NewHistogram()
			}
			in := make([]int64, len(robs))
			touched := make(map[uint64]bool)
			for i, u := range s.Uops {
				if u.Class.IsMem() {
					line := u.Addr >> 6
					if u.Class == trace.Load && !touched[line] {
						for r := range in {
							in[r]++
						}
					}
					touched[line] = true
				}
				for r, rob := range robs {
					if (i+1)%rob == 0 {
						want[r].Add(in[r])
						in[r] = 0
					}
				}
			}
			if !reflect.DeepEqual(p.ColdPerROB, want) {
				t.Fatalf("%s ROBs %v: cold-miss windows differ from the reference", s.Name, robs)
			}
		}
	}
}

// TestNonPositiveROBPanics checks that a ROB size of zero or below panics
// with a message naming it, from Run and from chainBuffers on empty and
// non-empty windows.
func TestNonPositiveROBPanics(t *testing.T) {
	s := catalogStreams()[0]
	for _, bad := range []int{0, -3} {
		robs := []int{16, bad, 64}
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Run", func() { Run(s, Options{ROBs: robs}) }},
			{"chainBuffers", func() { chainBuffers(s.Uops[:100], robs) }},
			{"chainBuffers(empty)", func() { chainBuffers(nil, robs) }},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				c.call()
				return
			}()
			if !strings.Contains(msg, fmt.Sprintf("ROB size %d ", bad)) {
				t.Errorf("%s with ROB size %d: panic %q does not name it", c.name, bad, msg)
			}
		}
	}
}
