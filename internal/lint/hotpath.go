package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath enforces the //mipp:hotpath annotation: a function so marked sits
// on the per-configuration evaluation path (Compiled.EvaluateRangeInto and its
// callees, Space.At, strategy step functions, memo-table lookups) where the
// benchmark suite budgets allocations per evaluation. The analyzer flags
// the constructs that allocate or otherwise wreck that budget.
//
// Diagnostic kinds:
//
//   - fmt-call: fmt.Sprintf / fmt.Sprint / fmt.Errorf etc. — every call
//     allocates the result string and boxes each argument.
//   - string-concat: s += ... or s = s + ... on strings inside a loop —
//     quadratic garbage.
//   - append-no-cap: append to a local slice declared without capacity in
//     the same function. Slices handed in by the caller (resize-once
//     buffers), reslices of existing backing arrays (x[:0]), and fields
//     (persistent memo/trace buffers) are exempt.
//   - interface-box: a scalar (numeric/bool) argument passed in an
//     interface{} parameter slot — the conversion heap-allocates.
//   - closure-in-loop: a function literal created inside a loop — one
//     allocation per iteration; hoist it above the loop.
//   - defer-in-loop: defer inside a loop runs at function exit, not loop
//     exit, and each one allocates a deferred frame.
//   - make-in-loop: make() inside a loop — one slice/map/channel allocation
//     per iteration; hoist the buffer above the loop and reuse it.
//   - map-in-loop: a map composite literal inside a loop — allocates the
//     map (and its buckets) per iteration.
//   - fidelity-in-hotpath: any call into mipp/fidelity — digesting, sampling
//     bookkeeping, and residual recording belong on the cold sampler
//     goroutine, never on the per-configuration evaluation path. The kernel
//     hands configs to Engine.offerFidelity after the batch completes; a
//     fidelity call inside the kernel itself reintroduces hashing and
//     locking per evaluation.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "enforces //mipp:hotpath: no fmt calls, string concatenation, " +
		"capacity-less appends, scalar interface boxing, per-iteration closures, " +
		"defers in loops, per-iteration make/map allocations, or mipp/fidelity " +
		"calls inside functions annotated as allocation-budgeted",
	Run: runHotpath,
}

// fidelityPkgPath is the residual-tracking package barred from hot paths.
const fidelityPkgPath = "mipp/fidelity"

func runHotpath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fd := range hotpathFuncs(f) {
			checkHotpath(pass, fd)
		}
	}
	return nil
}

func checkHotpath(pass *Pass, fd *ast.FuncDecl) {
	prealloc := preallocatedLocals(pass, fd)
	params := paramNames(fd)
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(node ast.Node) bool {
			if node == nil || node == n {
				return true
			}
			switch node := node.(type) {
			case *ast.ForStmt:
				if node.Init != nil {
					walk(node.Init, inLoop)
				}
				if node.Cond != nil {
					walk(node.Cond, inLoop)
				}
				if node.Post != nil {
					walk(node.Post, inLoop)
				}
				walk(node.Body, true)
				return false
			case *ast.RangeStmt:
				walk(node.X, inLoop)
				walk(node.Body, true)
				return false
			case *ast.DeferStmt:
				if inLoop {
					pass.Reportf(node.Pos(), "defer-in-loop",
						"defer inside a loop in hot path %s: runs at function exit and allocates per iteration; restructure or use an explicit call",
						fd.Name.Name)
				}
				walk(node.Call, inLoop)
				return false
			case *ast.FuncLit:
				if inLoop {
					pass.Reportf(node.Pos(), "closure-in-loop",
						"function literal created inside a loop in hot path %s: allocates a closure per iteration; hoist it above the loop",
						fd.Name.Name)
				}
				// The literal's body executes in its own context; the hot
				// path pays only for its creation.
				return false
			case *ast.AssignStmt:
				checkStringConcat(pass, fd, node, inLoop)
			case *ast.CompositeLit:
				if inLoop {
					if t := pass.TypeOf(node); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							pass.Reportf(node.Pos(), "map-in-loop",
								"map literal inside a loop in hot path %s: allocates the map and its buckets per iteration; hoist it above the loop and reuse it",
								fd.Name.Name)
						}
					}
				}
			case *ast.CallExpr:
				checkHotCall(pass, fd, node, prealloc, params, inLoop)
			}
			return true
		})
	}
	walk(fd.Body, false)
}

// checkStringConcat flags s += x and s = s + x on string operands in loops.
func checkStringConcat(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt, inLoop bool) {
	if !inLoop || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	lhs := as.Lhs[0]
	if t := pass.TypeOf(lhs); t == nil || !isStringType(t) {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		pass.Reportf(as.Pos(), "string-concat",
			"string += inside a loop in hot path %s: quadratic allocation; use a preallocated []byte or strings.Builder outside the hot path",
			fd.Name.Name)
	case token.ASSIGN:
		if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok && bin.Op == token.ADD {
			if render(pass.Fset, bin.X) == render(pass.Fset, lhs) {
				pass.Reportf(as.Pos(), "string-concat",
					"string concatenation onto itself inside a loop in hot path %s: quadratic allocation; use a preallocated []byte",
					fd.Name.Name)
			}
		}
	}
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, prealloc, params map[string]bool, inLoop bool) {
	if pkg, name := pkgFuncCall(pass, call); pkg == "fmt" {
		pass.Reportf(call.Pos(), "fmt-call",
			"fmt.%s in hot path %s: allocates the formatted string and boxes every argument; move formatting off the evaluation path",
			name, fd.Name.Name)
		return
	} else if pkg == fidelityPkgPath {
		pass.Reportf(call.Pos(), "fidelity-in-hotpath",
			"fidelity.%s in hot path %s: residual tracking hashes and locks; record fidelity on the cold sampler goroutine, not the evaluation path",
			name, fd.Name.Name)
		return
	}
	if name, ok := fidelityMethodCall(pass, call); ok {
		pass.Reportf(call.Pos(), "fidelity-in-hotpath",
			"%s call in hot path %s: residual tracking hashes and locks; record fidelity on the cold sampler goroutine, not the evaluation path",
			name, fd.Name.Name)
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "append":
			checkAppend(pass, fd, call, prealloc, params)
			return
		case "make":
			if inLoop {
				pass.Reportf(call.Pos(), "make-in-loop",
					"make inside a loop in hot path %s: allocates per iteration; hoist the buffer above the loop and reuse it",
					fd.Name.Name)
			}
			return
		}
	}
	checkInterfaceBoxing(pass, fd, call)
}

// fidelityMethodCall reports whether call is a method call on a type
// defined in mipp/fidelity (Recorder.Record, Pair.Sample, ...), returning a
// human-readable "Type.Method" description.
func fidelityMethodCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	recv, method := methodCallRecv(call)
	if recv == nil {
		return "", false
	}
	t := pass.TypeOf(recv)
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != fidelityPkgPath {
		return "", false
	}
	return "fidelity." + obj.Name() + "." + method, true
}

// checkAppend flags append whose destination is a local slice declared
// without capacity. Exempt: parameters (caller-owned buffers), struct
// fields / anything not a plain local, reslices (x = append(x[:0], ...)
// style code declares x elsewhere), and locals made with an explicit
// capacity.
func checkAppend(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, prealloc, params map[string]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	if params[id.Name] || prealloc[id.Name] {
		return
	}
	obj := pass.ObjectOf(id)
	if obj == nil || obj.Parent() == nil || obj.Parent() == types.Universe {
		return
	}
	// Only locals declared inside this function are candidates; package-level
	// slices and fields are persistent buffers by design.
	if obj.Pos() < fd.Pos() || obj.Pos() > fd.End() {
		return
	}
	pass.Reportf(call.Pos(), "append-no-cap",
		"append to %s in hot path %s grows a local slice declared without capacity; size it with make(T, 0, n) up front",
		id.Name, fd.Name.Name)
}

// preallocatedLocals collects local names assigned from a 3-argument make,
// from x[:0]-style reslices, or from a call (whose result may carry
// capacity the analyzer cannot see).
func preallocatedLocals(pass *Pass, fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			switch rhs := ast.Unparen(as.Rhs[i]).(type) {
			case *ast.CallExpr:
				if mid, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && (mid.Name == "make" || mid.Name == "append") {
					// x = append(x, ...) must not launder x into the
					// preallocated set; only a 3-arg make does.
					if mid.Name == "make" && len(rhs.Args) == 3 {
						out[id.Name] = true
					}
					continue
				}
				// Result of some other call: capacity unknown, give the
				// benefit of the doubt rather than false-positive.
				out[id.Name] = true
			case *ast.SliceExpr:
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

func paramNames(fd *ast.FuncDecl) map[string]bool {
	out := make(map[string]bool)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				out[name.Name] = true
			}
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			for _, name := range field.Names {
				out[name.Name] = true
			}
		}
	}
	return out
}

// checkInterfaceBoxing flags scalar-typed arguments landing in interface
// parameter slots — each conversion allocates.
func checkInterfaceBoxing(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	tv := pass.TypeOf(call.Fun)
	sig, ok := tv.(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < np-1 || (i < np && !sig.Variadic()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && np > 0:
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&(types.IsNumeric|types.IsBoolean) != 0 && b.Info()&types.IsUntyped == 0 {
			pass.Reportf(arg.Pos(), "interface-box",
				"%s argument boxed into interface parameter in hot path %s: each conversion heap-allocates; keep the call monomorphic",
				at.String(), fd.Name.Name)
		}
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
