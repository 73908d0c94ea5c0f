// Package trace defines the dynamic micro-operation stream representation
// shared by the workload generators, the micro-architecture independent
// profiler and the cycle-level reference simulator.
//
// Contemporary x86 processors split each macro-instruction into one or more
// micro-operations (uops) in the decode stage; the interval model operates on
// the uop stream at the dispatch stage (thesis §3.2). We therefore represent
// the dynamic instruction stream directly as a sequence of uops, each tagged
// with the boundary of the macro-instruction it belongs to.
package trace

import "fmt"

// Class enumerates micro-operation types. The set mirrors the instruction-mix
// categories the paper profiles (Table 2.1, §3.4): integer and floating-point
// arithmetic units, non-pipelined dividers, memory accesses, control flow and
// generic data movement.
type Class uint8

// Micro-operation classes.
const (
	IntALU     Class = iota // integer add/sub/logic
	IntMul                  // integer multiply
	IntDiv                  // integer divide (non-pipelined)
	FPAdd                   // floating-point add/compare ("FP ALU")
	FPMul                   // floating-point multiply
	FPDiv                   // floating-point divide (non-pipelined)
	Load                    // memory read
	Store                   // memory write
	Branch                  // conditional or unconditional control flow
	Move                    // register-to-register or immediate moves
	NumClasses              // number of distinct classes; keep last
)

var classNames = [NumClasses]string{
	"IntALU", "IntMul", "IntDiv", "FPAdd", "FPMul", "FPDiv",
	"Load", "Store", "Branch", "Move",
}

// String returns the human-readable class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// IsMem reports whether the class accesses the data memory hierarchy.
func (c Class) IsMem() bool { return c == Load || c == Store }

// Uop is one dynamic micro-operation.
//
// Register dependences are expressed positionally: SrcDist1/SrcDist2 give the
// distance, in uops, backwards in the dynamic stream to the producing uop
// (0 means no dependence through that operand). This positional encoding is
// what both the dependence-chain profiler (§3.3) and the simulator's renamed
// register file consume; it already reflects renaming, i.e. only true
// read-after-write dependences are encoded (§2.1).
type Uop struct {
	// PC is the static instruction address. Uops of the same macro
	// instruction share a PC.
	PC uint64
	// Static is a dense static-instruction identifier, used to key
	// per-static-load statistics (stride profiles, prefetch tables).
	Static uint32
	// SrcDist1 and SrcDist2 are backwards dependence distances in uops;
	// 0 means the operand is ready (no in-flight producer).
	SrcDist1 uint32
	SrcDist2 uint32
	// Addr is the byte address accessed when Class is Load or Store.
	Addr uint64
	// Class is the micro-operation type.
	Class Class
	// First marks the first uop of a macro-instruction. The number of
	// macro-instructions in a stream is the count of uops with First set.
	First bool
	// Taken is the branch outcome when Class is Branch.
	Taken bool
}

// Stream is a materialized dynamic uop trace plus its static-instruction
// count. Streams are deterministic: a workload generator with the same
// parameters and seed always yields an identical stream, so the profiler and
// the simulator observe exactly the same execution.
type Stream struct {
	// Name identifies the workload that generated the stream.
	Name string
	// Uops is the dynamic micro-operation sequence, in program order.
	Uops []Uop
	// Statics is the number of distinct static instructions.
	Statics int
}

// Len returns the number of dynamic uops.
func (s *Stream) Len() int { return len(s.Uops) }

// Instructions returns the number of dynamic macro-instructions.
func (s *Stream) Instructions() int {
	n := 0
	for i := range s.Uops {
		if s.Uops[i].First {
			n++
		}
	}
	return n
}

// UopsPerInstruction returns the CISC expansion ratio of the stream
// (Figure 3.1 in the paper ranges from ~1.07 for lbm to ~1.38 for GemsFDTD).
func (s *Stream) UopsPerInstruction() float64 {
	instr := s.Instructions()
	if instr == 0 {
		return 0
	}
	return float64(len(s.Uops)) / float64(instr)
}

// Mix returns the fraction of uops in each class. The slice is indexed by
// Class and sums to 1 for non-empty streams.
func (s *Stream) Mix() []float64 {
	counts := make([]float64, NumClasses)
	for i := range s.Uops {
		counts[s.Uops[i].Class]++
	}
	if n := float64(len(s.Uops)); n > 0 {
		for c := range counts {
			counts[c] /= n
		}
	}
	return counts
}

// Counts returns the absolute number of uops per class.
func (s *Stream) Counts() []int64 {
	counts := make([]int64, NumClasses)
	for i := range s.Uops {
		counts[s.Uops[i].Class]++
	}
	return counts
}

// Slice returns a sub-stream covering uops [lo, hi). The sub-stream shares
// the backing array; dependence distances that reach before lo simply point
// outside the window and are treated as ready by consumers, matching the
// micro-trace semantics of §5.1.
func (s *Stream) Slice(lo, hi int) *Stream {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Uops) {
		hi = len(s.Uops)
	}
	if lo > hi {
		lo = hi
	}
	return &Stream{Name: s.Name, Uops: s.Uops[lo:hi], Statics: s.Statics}
}
