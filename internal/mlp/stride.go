package mlp

import (
	"sort"

	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
)

// The stride-MLP model rebuilds a virtual instruction stream from the
// load-spacing, stride, reuse-distance and inter-load dependence
// distributions, marks hits and misses, and steps an abstract ROB over the
// stream counting independent misses (§4.5). Branch mispredictions drain
// the window (§2.5.2), so the abstract ROB steps with the truncated window
// size. Compiled (compile.go) splits the stream by what each part depends
// on: a baseStream per micro-trace, a missMarks bitset per LLC line count
// and a depthColumn per profiled-ROB index.

// baseStream is the config-independent part of one micro-trace's virtual
// instruction stream, in position order: 20 bytes per load plus 4 per
// new-line access.
type baseStream struct {
	pos    []int   // uop position within the micro-trace
	prev   []int   // position of the previous access of the same record (-1)
	static []int32 // dense static index into pf (one per Static id)

	// newLine lists, record by record (m.Loads entry by entry) in
	// construction order, the stream index of every access that opens a
	// new line along its stride pattern: only those can be marked as
	// misses. Record r's run ends at newEnd[r].
	newLine []int32
	newEnd  []int32

	// pf classifies each static for the prefetcher model; a static that
	// m.Loads repeats takes its last record's classification.
	pf []pfClass
}

// pfClass is what the prefetcher model reads of a static's classification:
// whether it follows a stride pattern, and its largest stride in bytes.
type pfClass struct {
	strided bool
	reach   uint64
}

// depthColumn assigns each stream index a dependence depth ℓ:
// keys[at[i]] is the depth of the i-th load in position order.
type depthColumn struct {
	keys []int64
	at   []int32
}

type pfStats struct {
	timely  float64 // fraction of misses fully hidden by prefetching
	partial float64 // fraction of misses partially hidden
	spacing float64 // average trigger distance (uops) for partial misses
}

// buildBase positions each static load's recurrences with the
// load-spacing distribution, assigns addresses along its classified stride
// pattern to find the accesses that open a new line, and sorts the
// accesses by position. The accesses are generated record by record in
// m.Loads order and sorted with sort.Slice on position alone, so the
// order of accesses that share a position is a fixed function of that
// construction order.
func buildBase(m *profiler.Micro) *baseStream {
	type access struct {
		pos, prev int
		static    int32
		built     int32 // index in construction order
	}
	b := &baseStream{newEnd: make([]int32, len(m.Loads))}
	dense := make(map[uint32]int32, len(m.Loads))
	var accesses []access
	var lineSeq int64
	for r, sl := range m.Loads {
		cls := profiler.Classify(sl)
		s, ok := dense[sl.Static]
		if !ok {
			s = int32(len(b.pf))
			dense[sl.Static] = s
			b.pf = append(b.pf, pfClass{})
		}
		b.pf[s] = classifyForPrefetch(cls)
		spacing := sl.AvgSpacing()
		if spacing < 1 {
			spacing = 1
		}
		base := int64(sl.Static) << 24
		var addr int64
		var strideAcc []float64
		if len(cls.Strides) > 0 {
			strideAcc = make([]float64, len(cls.Strides))
		}
		prevLine := int64(-1)
		prevPos := -1
		for k := 0; k < sl.Count; k++ {
			pos := sl.FirstPos + int(float64(k)*spacing+0.5)
			if pos >= m.Len {
				pos = m.Len - 1
			}
			var line int64
			switch cls.Category {
			case profiler.CatRandom, profiler.CatUnique:
				// Every access touches a fresh line.
				lineSeq++
				line = (1 << 40) + lineSeq
			default:
				line = base + addr>>6
				// Advance along the stride pattern, weighted
				// round-robin over the classified strides.
				if len(cls.Strides) > 0 {
					best := 0
					for i := range strideAcc {
						strideAcc[i] += cls.Weights[i]
						if strideAcc[i] > strideAcc[best] {
							best = i
						}
					}
					strideAcc[best]--
					addr += cls.Strides[best]
				}
			}
			if line != prevLine {
				b.newLine = append(b.newLine, int32(len(accesses)))
			}
			accesses = append(accesses, access{pos: pos, prev: prevPos, static: s, built: int32(len(accesses))})
			prevLine = line
			prevPos = pos
		}
		b.newEnd[r] = int32(len(b.newLine))
	}
	sort.Slice(accesses, func(i, j int) bool { return accesses[i].pos < accesses[j].pos })

	b.pos = make([]int, len(accesses))
	b.prev = make([]int, len(accesses))
	b.static = make([]int32, len(accesses))
	at := make([]int32, len(accesses)) // construction index -> stream index
	for i, a := range accesses {
		b.pos[i], b.prev[i], b.static[i] = a.pos, a.prev, a.static
		at[a.built] = int32(i)
	}
	for k, built := range b.newLine {
		b.newLine[k] = at[built]
	}
	return b
}

// classifyForPrefetch reduces a classification to what modelPrefetcher
// reads.
func classifyForPrefetch(cls profiler.Classification) pfClass {
	pc := pfClass{strided: cls.Category >= profiler.CatStride && cls.Category <= profiler.CatFilter4}
	for _, s := range cls.Strides {
		if s < 0 {
			s = -s
		}
		pc.reach = max(pc.reach, uint64(s))
	}
	return pc
}

// missMarks marks predicted LLC misses on the base stream at one LLC line
// count with a per-record error diffusion of its static's StatStack miss
// ratio, so discrete marks match the predicted rate. Bit i is set when the
// i-th load in position order misses.
func missMarks(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve, b *baseStream, llcLines float64) []uint64 {
	targetMisses := statstack.MissRatioForMicro(curve, m, llcLines) * float64(m.LoadCount)
	// Record r contributed max(Count, 0) accesses to the base stream.
	ratios := make([]float64, len(m.Loads))
	var expected float64
	var totalAccesses int
	for r, sl := range m.Loads {
		ratios[r] = statstack.StaticLoadMissRatio(p, curve, sl.Static, llcLines)
		expected += ratios[r] * float64(max(sl.Count, 0))
		totalAccesses += max(sl.Count, 0)
	}
	// Rescale the per-static ratios so the marked misses match the
	// micro-trace's own StatStack miss count: the global per-static reuse
	// spreads cold misses over time, while the per-window count keeps the
	// temporal clustering (cold bursts) that MLP depends on (§4.4).
	scale := 1.0
	if expected > 0 && targetMisses > 0 {
		scale = targetMisses / expected
	} else if targetMisses > 0 && totalAccesses > 0 {
		// No per-static signal at all: spread the misses uniformly.
		for r := range ratios {
			ratios[r] = targetMisses / float64(totalAccesses)
		}
	}
	marks := make([]uint64, (len(b.pos)+63)/64)
	start := int32(0)
	for r, sl := range m.Loads {
		newLine := b.newLine[start:b.newEnd[r]]
		start = b.newEnd[r]
		ratio := ratios[r] * scale
		if ratio > 1 {
			ratio = 1
		}
		if len(newLine) == 0 || !(ratio > 0) {
			continue
		}
		perNew := ratio * float64(max(sl.Count, 0)) / float64(len(newLine))
		if perNew > 1 {
			perNew = 1
		}
		acc := 0.0
		for _, i := range newLine {
			acc += perNew
			if acc >= 0.9999 {
				marks[i>>6] |= 1 << (i & 63)
				acc--
			}
		}
	}
	return marks
}

// missed reports whether the i-th load in position order is marked.
func missed(marks []uint64, i int) bool { return marks[i>>6]&(1<<(i&63)) != 0 }

// depths deterministically assigns each of n loads in position order a
// dependence depth ℓ so the depth distribution matches the profiled f(ℓ).
// An empty histogram gives every load depth 1.
func depths(f *stats.Histogram, n int) depthColumn {
	d := depthColumn{keys: f.Keys(), at: make([]int32, n)}
	if len(d.keys) == 0 {
		d.keys = []int64{1}
		return d
	}
	frac := make([]float64, len(d.keys))
	for k, key := range d.keys {
		frac[k] = f.Fraction(key)
	}
	acc := make([]float64, len(d.keys))
	for i := range d.at {
		best := 0
		for k := range acc {
			acc[k] += frac[k]
			if acc[k] > acc[best] {
				best = k
			}
		}
		acc[best]--
		d.at[i] = int32(best)
	}
	return d
}

// modelPrefetcher walks the virtual stream with a model of the limited-size
// per-PC stride table (§4.9): a miss is prefetchable when its static load is
// still tracked, follows a stride pattern that stays within a DRAM page, and
// has recurred at least MinConfidence times. Timeliness follows
// Equation 4.13: a trigger more than ROB uops ahead hides the full latency.
func modelPrefetcher(b *baseStream, marks []uint64, prm Params) pfStats {
	var out pfStats
	if !prm.Prefetch.Enabled {
		return out
	}
	occurrence := make([]int, len(b.pf))
	// LRU table of tracked statics; slot[s] is 1 + s's index in table, or
	// 0 when s is not tracked.
	type lruEnt struct {
		static int32
		tick   int
	}
	slot := make([]int, len(b.pf))
	table := make([]lruEnt, 0, len(b.pf))
	tick := 0
	var misses, timely, partial, spacingSum float64
	for i, s := range b.static {
		tick++
		occ := occurrence[s]
		occurrence[s] = occ + 1
		tracked := false
		if e := slot[s]; e > 0 {
			table[e-1].tick = tick
			tracked = true
		} else if len(table) >= prm.Prefetch.TableSize && prm.Prefetch.TableSize > 0 {
			// Evict LRU: its recurrence distance exceeded the
			// table reach.
			victim := 0
			for j := range table {
				if table[j].tick < table[victim].tick {
					victim = j
				}
			}
			slot[table[victim].static] = 0
			table[victim] = lruEnt{static: s, tick: tick}
			slot[s] = victim + 1
		} else {
			table = append(table, lruEnt{static: s, tick: tick})
			slot[s] = len(table)
		}
		if !missed(marks, i) {
			continue
		}
		misses++
		if !tracked || occ < prm.Prefetch.MinConfidence {
			continue
		}
		if pc := b.pf[s]; !pc.strided || pc.reach >= prm.Prefetch.PageBytes {
			continue
		}
		// Timeliness (Eq 4.13): the prefetch triggers at the previous
		// recurrence; a gap of at least ROB uops hides everything.
		gap := prm.ROB
		if b.prev[i] >= 0 {
			gap = b.pos[i] - b.prev[i]
		}
		if gap >= prm.ROB {
			timely++
		} else {
			partial++
			spacingSum += float64(gap)
		}
	}
	if misses > 0 {
		out.timely = timely / misses
		out.partial = partial / misses
	}
	if partial > 0 {
		out.spacing = spacingSum / partial
	}
	return out
}

// stepROB steps non-overlapping ROB-sized windows over the virtual stream
// and computes the average number of independent misses per window with at
// least one miss — the abstract MLP model of §4.5.
func stepROB(b *baseStream, marks []uint64, d depthColumn, microLen, rob int) float64 {
	if rob <= 0 {
		return 1
	}
	var mlpSum float64
	var windows float64
	i := 0
	for start := 0; start < microLen; start += rob {
		end := start + rob
		first := i
		var loads, misses float64
		for i < len(b.pos) && b.pos[i] < end {
			loads++
			if missed(marks, i) {
				misses++
			}
			i++
		}
		if misses == 0 || loads == 0 {
			continue
		}
		mw := misses / loads
		mlp := 0.0
		for j := first; j < i; j++ {
			if !missed(marks, j) {
				continue
			}
			mlp += pow1m(mw, int(d.keys[d.at[j]])-1)
		}
		if mlp < 1 {
			mlp = 1
		}
		mlpSum += mlp
		windows++
	}
	if windows == 0 {
		return 1
	}
	return mlpSum / windows
}

// pow1m computes (1-m)^k without importing math for the hot path.
func pow1m(m float64, k int) float64 {
	r := 1.0
	b := 1 - m
	if b < 0 {
		b = 0
	}
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			r *= b
		}
		b *= b
	}
	return r
}
