// Package workload synthesizes deterministic dynamic micro-op streams that
// stand in for the SPEC CPU 2006 traces the paper profiles with Pin.
//
// The analytical model consumes only distributional properties of the dynamic
// instruction stream — micro-op mix, dependence-chain structure, memory reuse
// and stride behaviour, and branch (un)predictability. The suite in this
// package therefore generates streams from parameterized kernels that span
// the same behaviour space the paper's workload-characterization figures
// document (Figures 3.1, 3.4, 4.2, 4.4 and 4.7), one named workload per SPEC
// CPU 2006 benchmark. Generation is fully deterministic: the same name,
// length and seed always produce the identical stream, so the profiler and
// the cycle-level simulator observe exactly the same execution.
package workload

import (
	"math/rand"

	"mipp/internal/trace"
)

// NumRegs is the size of the virtual architectural register file the
// generators allocate from. Dependences are positional in the emitted
// stream, so the register ids never leave this package.
const NumRegs = 64

// Builder incrementally constructs a trace.Stream, tracking the last writer
// of every virtual register so that uops carry backwards dependence
// distances, and interning static PCs into dense static-instruction ids.
type Builder struct {
	name      string
	uops      []trace.Uop
	lastWrite [NumRegs]int // 1-based index of last writer; 0 = never written
	statics   map[uint64]uint32
	rng       *rand.Rand
	pcBase    uint64
	addrBase  uint64
	regCursor int
}

// NewBuilder returns a Builder for a workload called name, seeded
// deterministically.
func NewBuilder(name string, seed int64, capacity int) *Builder {
	return &Builder{
		name:    name,
		uops:    make([]trace.Uop, 0, capacity),
		statics: make(map[uint64]uint32),
		rng:     rand.New(rand.NewSource(seed)),
		pcBase:  0x400000,
	}
}

// Rand exposes the builder's deterministic random source to kernels.
func (b *Builder) Rand() *rand.Rand { return b.rng }

// Len returns the number of uops emitted so far.
func (b *Builder) Len() int { return len(b.uops) }

// AllocPC reserves a block of static instruction addresses for a kernel
// instance, keeping static ids of distinct kernels disjoint.
func (b *Builder) AllocPC(slots int) uint64 {
	base := b.pcBase
	b.pcBase += uint64(slots+16) * 4
	return base
}

// AllocAddr reserves a disjoint region of the synthetic address space for a
// kernel's data structures and returns its cache-line aligned base address.
func (b *Builder) AllocAddr(size uint64) uint64 {
	if b.addrBase == 0 {
		b.addrBase = 0x10000000
	}
	base := b.addrBase
	b.addrBase += (size + 4095) &^ 4095
	return base
}

// AllocRegs hands out n virtual registers to a kernel instance. Distinct
// kernels receive distinct registers while the total stays below NumRegs;
// once exhausted, allocation wraps (a spurious cross-kernel dependence is
// harmless because phases execute sequentially).
func (b *Builder) AllocRegs(n int) []int {
	regs := make([]int, n)
	for i := range regs {
		regs[i] = b.regCursor % NumRegs
		b.regCursor++
	}
	return regs
}

// Stream finalizes the builder into an immutable trace.Stream.
func (b *Builder) Stream() *trace.Stream {
	return &trace.Stream{Name: b.name, Uops: b.uops, Statics: len(b.statics)}
}

func (b *Builder) staticID(pc uint64) uint32 {
	if id, ok := b.statics[pc]; ok {
		return id
	}
	id := uint32(len(b.statics))
	b.statics[pc] = id
	return id
}

// dist converts a source register into a backwards dependence distance for
// the uop about to be appended at index len(b.uops).
func (b *Builder) dist(reg int) uint32 {
	if reg < 0 {
		return 0
	}
	w := b.lastWrite[reg]
	if w == 0 {
		return 0
	}
	d := len(b.uops) + 1 - w
	if d <= 0 {
		return 0
	}
	return uint32(d)
}

func (b *Builder) append(u trace.Uop, dst int) {
	b.uops = append(b.uops, u)
	if dst >= 0 {
		b.lastWrite[dst] = len(b.uops)
	}
}

// Op emits a register-to-register uop starting a new macro-instruction.
// dst, src1 and src2 are virtual register ids; pass -1 for unused operands.
func (b *Builder) Op(class trace.Class, pc uint64, dst, src1, src2 int) {
	u := trace.Uop{
		PC:       pc,
		Static:   b.staticID(pc),
		Class:    class,
		First:    true,
		SrcDist1: b.dist(src1),
		SrcDist2: b.dist(src2),
	}
	b.append(u, dst)
}

// FusedOp emits a uop that belongs to the same macro-instruction as the
// immediately preceding uop — the CISC micro-op expansion of §3.2. The uops
// per instruction ratio of a stream is controlled by the fraction of FusedOp
// emissions.
func (b *Builder) FusedOp(class trace.Class, pc uint64, dst, src1, src2 int) {
	u := trace.Uop{
		PC:       pc,
		Static:   b.staticID(pc),
		Class:    class,
		First:    false,
		SrcDist1: b.dist(src1),
		SrcDist2: b.dist(src2),
	}
	b.append(u, dst)
}

// Load emits a load macro-instruction reading addr into dst. addrSrc is the
// register holding the address (-1 for addressing off a constant base), which
// creates the load-to-load dependences pointer-chasing kernels rely on.
func (b *Builder) Load(pc uint64, dst, addrSrc int, addr uint64) {
	u := trace.Uop{
		PC:       pc,
		Static:   b.staticID(pc),
		Class:    trace.Load,
		First:    true,
		SrcDist1: b.dist(addrSrc),
		Addr:     addr,
	}
	b.append(u, dst)
}

// Store emits a store macro-instruction writing the value produced by
// dataSrc to addr.
func (b *Builder) Store(pc uint64, addrSrc, dataSrc int, addr uint64) {
	u := trace.Uop{
		PC:       pc,
		Static:   b.staticID(pc),
		Class:    trace.Store,
		First:    true,
		SrcDist1: b.dist(addrSrc),
		SrcDist2: b.dist(dataSrc),
		Addr:     addr,
	}
	b.append(u, -1)
}

// Branch emits a conditional branch macro-instruction whose outcome is taken.
// src is the register the branch condition depends on; its dependence
// distance determines the branch-resolution time the model captures with the
// average branch path.
func (b *Builder) Branch(pc uint64, src int, taken bool) {
	u := trace.Uop{
		PC:       pc,
		Static:   b.staticID(pc),
		Class:    trace.Branch,
		First:    true,
		SrcDist1: b.dist(src),
		Taken:    taken,
	}
	b.append(u, -1)
}

// branchGen produces branch outcomes with a controllable linear branch
// entropy. The base outcome follows a deterministic periodic pattern (which
// a history-based predictor learns perfectly); each outcome is flipped with
// probability eps. Under a long history the per-(branch,history) taken
// probability is eps or 1-eps, so the linear branch entropy (Eq 3.14)
// approaches 2·eps and any history-based predictor's asymptotic miss rate
// approaches eps — the linear relation Figure 3.9 measures.
type branchGen struct {
	period int
	taken  int // number of taken slots per period
	eps    float64
	iter   int
}

func newBranchGen(period, taken int, eps float64) *branchGen {
	if period < 1 {
		period = 1
	}
	if taken > period {
		taken = period
	}
	return &branchGen{period: period, taken: taken, eps: eps}
}

// next returns the next outcome using r for the noise flips.
func (g *branchGen) next(r *rand.Rand) bool {
	base := g.iter%g.period < g.taken
	g.iter++
	if g.eps > 0 && r.Float64() < g.eps {
		return !base
	}
	return base
}
