package lint

import (
	"go/ast"
	"go/types"
)

// DeterministicPackages is the default scope of the determinism analyzer:
// the packages whose output the test suite pins byte-identical across
// seams (local vs remote, batch vs sequential, 1 vs N workers, pre vs post
// restart). Server and client are excluded on purpose — their logging and
// polling legitimately read the clock; anything they return flows through
// these packages anyway.
var DeterministicPackages = []string{
	"mipp",
	"mipp/api",
	"mipp/arch",
	"mipp/fidelity",
	"mipp/search",
	"mipp/store",
	"mipp/internal/core",
	"mipp/internal/config",
	"mipp/internal/dse",
	"mipp/internal/statstack",
	"mipp/internal/memo",
	// The profile pipeline: a profile's bytes decide its store digest and
	// every prediction made from it.
	"mipp/internal/profiler",
	"mipp/internal/branch",
	"mipp/internal/mlp",
	"mipp/internal/stats",
	"mipp/internal/workload",
	"mipp/internal/trace",
	"mipp/internal/cache",
	"mipp/internal/ooo",
	"mipp/internal/power",
	"mipp/internal/perf",
	"mipp/internal/prefetch",
	"mipp/internal/memory",
}

// Determinism is the analyzer with the repository's default scope.
var Determinism = NewDeterminism(DeterministicPackages)

// NewDeterminism builds the determinism analyzer over a package scope (nil
// scope = every package, used by the golden tests).
//
// Diagnostic kinds:
//
//   - map-range: a `range` over a map whose body lets the iteration order
//     escape — appending to a slice (unless that slice is sorted later in
//     the same function), encoding/printing through encoding/json or fmt,
//     writing to an io.Writer, sending on a channel, or spawning a
//     goroutine. Map iteration order is randomized per run, so any of
//     these turns it into nondeterministic output.
//   - time-now: time.Now / time.Since / time.Until — wall-clock reads have
//     no place in packages that promise identical bytes for identical
//     requests.
//   - global-rand: package-level math/rand functions (Intn, Shuffle, ...)
//     draw from the process-global, racily shared source; randomness must
//     flow from an explicit seeded *rand.Rand (rand.New(rand.NewSource(seed))).
func NewDeterminism(scope []string) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc: "flags nondeterminism sources (unsorted map iteration feeding output, " +
			"wall-clock reads, the global math/rand source) in packages that promise " +
			"seeded, byte-identical results",
	}
	a.Run = func(pass *Pass) error {
		if !inScope(scope, pass.Path) {
			return nil
		}
		funcDecls(pass, func(fd *ast.FuncDecl) {
			checkDeterminism(pass, fd)
		})
		return nil
	}
	return a
}

// seededRandConstructors are the math/rand functions that build an explicit
// source — the sanctioned path to randomness.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func checkDeterminism(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					checkMapRange(pass, fd, n)
				}
			}
		case *ast.CallExpr:
			pkg, name := pkgFuncCall(pass, n)
			switch {
			case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
				pass.Reportf(n.Pos(), "time-now",
					"time.%s in deterministic package %s: identical requests must produce identical bytes",
					name, pass.Path)
			case (pkg == "math/rand" || pkg == "math/rand/v2") && !seededRandConstructors[name]:
				pass.Reportf(n.Pos(), "global-rand",
					"%s.%s draws from the unseeded process-global source; thread a seeded *rand.Rand instead",
					pkg, name)
			}
		}
		return true
	})
}

// checkMapRange flags a map range whose body lets iteration order escape.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	mapExpr := render(pass.Fset, rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "map-range",
				"goroutine launched per iteration of map %s: map order decides the fan-out order; iterate sorted keys",
				mapExpr)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "map-range",
				"channel send inside iteration of map %s: map order becomes message order; iterate sorted keys",
				mapExpr)
		case *ast.CallExpr:
			if pkg, name := pkgFuncCall(pass, n); pkg == "encoding/json" || pkg == "fmt" {
				pass.Reportf(n.Pos(), "map-range",
					"%s.%s inside iteration of map %s emits in map order, which is randomized per run; iterate sorted keys",
					pkg, name, mapExpr)
				return true
			}
			if recv, m := methodCallRecv(n); recv != nil && m == "Write" {
				if t := pass.TypeOf(recv); t != nil && implementsWriter(t) {
					pass.Reportf(n.Pos(), "map-range",
						"Write inside iteration of map %s emits in map order, which is randomized per run; iterate sorted keys",
						mapExpr)
				}
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				dst := render(pass.Fset, n.Args[0])
				if !sortedAfter(pass, fd, rng, dst) {
					pass.Reportf(n.Pos(), "map-range",
						"append to %s inside iteration of map %s builds an order-dependent slice and it is never sorted afterwards; sort it (or iterate sorted keys)",
						dst, mapExpr)
				}
			}
		}
		return true
	})
}

// implementsWriter reports whether t has a Write([]byte) (int, error)
// method — the io.Writer shape, matched structurally so the check does not
// need io's type in the import graph.
func implementsWriter(t types.Type) bool {
	ms := types.NewMethodSet(t)
	if ptr, ok := t.(*types.Pointer); !ok && ptr == nil {
		// Also consider the pointer method set for addressable values.
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		if fn.Name() != "Write" {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Params().Len() == 1 && sig.Results().Len() == 2 {
			return true
		}
	}
	return false
}

// sortedAfter reports whether, somewhere after the range statement in the
// same function, dst is passed as the first argument of a sort.* /
// slices.Sort* call — the idiom that launders map-order accumulation back
// into deterministic output (WorkloadNames, store.Names, ...).
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, dst string) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted || n == nil || n.Pos() <= rng.End() {
			return !sorted
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if pkg, _ := pkgFuncCall(pass, call); pkg == "sort" || pkg == "slices" {
			if render(pass.Fset, call.Args[0]) == dst {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}
