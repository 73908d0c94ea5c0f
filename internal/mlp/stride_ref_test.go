package mlp

// The stride-MLP model as it was before the stream was split into a base
// stream and per-key columns: every (LLC line count, profiled-ROB index)
// key built, sorted and depth-assigned a whole stream of its own. It is the
// reference TestStrideMLPMatchesReference holds Compiled.strideMLP to, bit
// for bit.

import (
	"sort"

	"mipp/internal/profiler"
	"mipp/internal/stats"
	"mipp/internal/statstack"
)

// virtualLoad is one entry of the virtual instruction stream the stride-MLP
// model reconstructs from the profiled distributions (§4.5).
type virtualLoad struct {
	pos     int // uop position within the micro-trace
	static  uint32
	line    int64 // virtual cache-line id
	newLine bool  // first access to this line along the stride pattern
	miss    bool  // predicted LLC miss
	depth   int   // ℓ: loads on the dependence path (from f(ℓ))
	prev    int   // position of the previous access of the same static (-1)
}

// refBuildVirtualStream positions each static load's recurrences with the
// load-spacing distribution, assigns addresses along its classified stride
// pattern, and marks predicted LLC misses with a per-static error-diffusion
// of its StatStack miss ratio (so discrete marks match the predicted rate).
func refBuildVirtualStream(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve, llcLines, targetMisses float64) []virtualLoad {
	type staticStream struct {
		accesses []virtualLoad
		newLines int
		ratio    float64
	}
	var perStatic []staticStream
	var lineSeq int64
	var expected float64
	var totalAccesses int
	for _, sl := range m.Loads {
		cls := profiler.Classify(sl)
		spacing := sl.AvgSpacing()
		if spacing < 1 {
			spacing = 1
		}
		missRatio := statstack.StaticLoadMissRatio(p, curve, sl.Static, llcLines)
		base := int64(sl.Static) << 24
		var addr int64
		var strideAcc []float64
		if len(cls.Strides) > 0 {
			strideAcc = make([]float64, len(cls.Strides))
		}
		prevLine := int64(-1)
		prevPos := -1
		var accesses []virtualLoad
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
			v := virtualLoad{pos: pos, static: sl.Static, line: line, prev: prevPos}
			v.newLine = line != prevLine
			prevLine = line
			prevPos = pos
			accesses = append(accesses, v)
		}
		newLines := 0
		for i := range accesses {
			if accesses[i].newLine {
				newLines++
			}
		}
		perStatic = append(perStatic, staticStream{accesses, newLines, missRatio})
		expected += missRatio * float64(len(accesses))
		totalAccesses += len(accesses)
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
		for i := range perStatic {
			perStatic[i].ratio = targetMisses / float64(totalAccesses)
		}
	}
	var stream []virtualLoad
	for _, ss := range perStatic {
		ratio := ss.ratio * scale
		if ratio > 1 {
			ratio = 1
		}
		if ss.newLines > 0 && ratio > 0 {
			perNew := ratio * float64(len(ss.accesses)) / float64(ss.newLines)
			if perNew > 1 {
				perNew = 1
			}
			acc := 0.0
			for i := range ss.accesses {
				if !ss.accesses[i].newLine {
					continue
				}
				acc += perNew
				if acc >= 0.9999 {
					ss.accesses[i].miss = true
					acc--
				}
			}
		}
		stream = append(stream, ss.accesses...)
	}
	sort.Slice(stream, func(i, j int) bool { return stream[i].pos < stream[j].pos })
	return stream
}

// refAssignDepths deterministically assigns each virtual load a dependence
// depth ℓ so the depth distribution matches the profiled f(ℓ).
func refAssignDepths(stream []virtualLoad, f *stats.Histogram) {
	keys := f.Keys()
	if len(keys) == 0 {
		for i := range stream {
			stream[i].depth = 1
		}
		return
	}
	acc := make([]float64, len(keys))
	for i := range stream {
		best := 0
		for k := range keys {
			acc[k] += f.Fraction(keys[k])
			if acc[k] > acc[best] {
				best = k
			}
		}
		acc[best]--
		stream[i].depth = int(keys[best])
	}
}

// refModelPrefetcher walks the virtual stream with a model of the limited-size
// per-PC stride table (§4.9): a miss is prefetchable when its static load is
// still tracked, follows a stride pattern that stays within a DRAM page, and
// has recurred at least MinConfidence times. Timeliness follows
// Equation 4.13: a trigger more than ROB uops ahead hides the full latency.
func refModelPrefetcher(stream []virtualLoad, m *profiler.Micro, prm Params) pfStats {
	var out pfStats
	if !prm.Prefetch.Enabled {
		return out
	}
	classes := make(map[uint32]profiler.Classification, len(m.Loads))
	occurrence := make(map[uint32]int, len(m.Loads))
	for _, sl := range m.Loads {
		classes[sl.Static] = profiler.Classify(sl)
	}
	// LRU table of tracked statics.
	type lruEnt struct {
		static uint32
		tick   int
	}
	table := make(map[uint32]*lruEnt, prm.Prefetch.TableSize)
	tick := 0
	var misses, timely, partial, spacingSum float64
	for i := range stream {
		v := &stream[i]
		tick++
		occ := occurrence[v.static]
		occurrence[v.static] = occ + 1
		tracked := false
		if e, ok := table[v.static]; ok {
			e.tick = tick
			tracked = true
		} else {
			if len(table) >= prm.Prefetch.TableSize && prm.Prefetch.TableSize > 0 {
				// Evict LRU: its recurrence distance exceeded
				// the table reach.
				var victim *lruEnt
				for _, e := range table {
					if victim == nil || e.tick < victim.tick {
						victim = e
					}
				}
				delete(table, victim.static)
			}
			table[v.static] = &lruEnt{static: v.static, tick: tick}
		}
		if !v.miss {
			continue
		}
		misses++
		cls := classes[v.static]
		if !tracked || occ < prm.Prefetch.MinConfidence {
			continue
		}
		strided := cls.Category >= profiler.CatStride && cls.Category <= profiler.CatFilter4
		if !strided {
			continue
		}
		inPage := true
		for _, s := range cls.Strides {
			if s < 0 {
				s = -s
			}
			if uint64(s) >= prm.Prefetch.PageBytes {
				inPage = false
				break
			}
		}
		if !inPage {
			continue
		}
		// Timeliness (Eq 4.13): the prefetch triggers at the previous
		// recurrence; a gap of at least ROB uops hides everything.
		gap := prm.ROB
		if v.prev >= 0 {
			gap = v.pos - v.prev
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

// refStepROB steps non-overlapping ROB-sized windows over the virtual stream
// and computes the average number of independent misses per window with at
// least one miss — the abstract MLP model of §4.5.
func refStepROB(stream []virtualLoad, microLen, rob int) float64 {
	if rob <= 0 {
		return 1
	}
	var mlpSum float64
	var windows float64
	i := 0
	for start := 0; start < microLen; start += rob {
		end := start + rob
		var loads, misses float64
		var windowStream []virtualLoad
		for i < len(stream) && stream[i].pos < end {
			windowStream = append(windowStream, stream[i])
			loads++
			if stream[i].miss {
				misses++
			}
			i++
		}
		if misses == 0 || loads == 0 {
			continue
		}
		mw := misses / loads
		mlp := 0.0
		for _, v := range windowStream {
			if !v.miss {
				continue
			}
			mlp += pow1m(mw, v.depth-1)
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

// refKey is the reference's per-stream key.
type refKey struct {
	llcLines float64
	robIdx   int
}

// refStrideMLP is the reference's Compiled.strideMLP: one stream per key,
// built on first use and kept in streams.
func refStrideMLP(p *profiler.Profile, m *profiler.Micro, curve *statstack.Curve, streams map[refKey][]virtualLoad, prm Params) (float64, pfStats) {
	k := refKey{llcLines: prm.LLCLines, robIdx: p.Opts.ROBIndexFor(prm.ROB)}
	stream, ok := streams[k]
	if !ok {
		target := statstack.MissRatioForMicro(curve, m, k.llcLines) * float64(m.LoadCount)
		stream = refBuildVirtualStream(p, m, curve, k.llcLines, target)
		refAssignDepths(stream, microLoadDeps(p, m, k.robIdx))
		streams[k] = stream
	}
	if len(stream) == 0 {
		return 1, pfStats{}
	}
	pf := refModelPrefetcher(stream, m, prm)
	return refStepROB(stream, m.Len, prm.window()), pf
}
