package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// fusedTypeName matches the immutable fused score matrix type wherever it
// is declared. Matching by name (rather than pinning repro/internal/svm)
// keeps the check meaningful in analysistest fixtures, which cannot reach
// svm's unexported fields from a fake package path; no other FusedLinear
// type exists in the module.
const fusedTypeName = "FusedLinear"

// fusedConstructor prefixes the only functions allowed to write
// FusedLinear fields (NewFusedLinear, NewFusedLinearLayout): the
// rebuild-on-swap contract says every bank change constructs a fresh
// matrix instead of patching the live one.
const fusedConstructor = "NewFusedLinear"

// FusedMut enforces the FusedLinear immutability contract: outside
// NewFusedLinear, any write to a FusedLinear field — directly
// (f.rows[i] = w), through a local alias (rows := f.rows; rows[i] = w), or
// through an alias returned by one of its methods (f.Tags()[0] = ...) —
// is reported. A constructed matrix is shared read-only across shards and
// generations; mutating it in place races with concurrent scoring and
// silently breaks the bit-identical-to-DotDense pinning.
var FusedMut = &analysis.Analyzer{
	Name: "fusedmut",
	Doc: "svm.FusedLinear is immutable after construction: report writes to its fields or " +
		"backing arrays outside NewFusedLinear (rebuild on retrain/Refine/Swap instead)",
	Run: runFusedMut,
}

func runFusedMut(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasPrefix(fd.Name.Name, fusedConstructor) {
				continue
			}
			checkFusedFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFusedFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	aliases := map[types.Object]bool{}

	// Taint locals that alias FusedLinear backing memory: assignments
	// from a field selection (rows := f.rows) or from an alias-returning
	// method call (tags := f.Tags()).
	for range 8 {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || !fusedAliased(info, aliases, as.Rhs[i]) {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil && !aliases[obj] {
					aliases[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	report := func(pos ast.Node, how string) {
		pass.Reportf(pos.Pos(),
			"write to FusedLinear %s outside %s violates the rebuild-on-swap immutability contract; "+
				"construct a fresh matrix instead", how, fusedConstructor)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if how, bad := fusedWriteTarget(info, aliases, lhs); bad {
					report(lhs, how)
				}
			}
		case *ast.IncDecStmt:
			if how, bad := fusedWriteTarget(info, aliases, n.X); bad {
				report(n.X, how)
			}
		case *ast.CallExpr:
			// Handing FusedLinear backing memory to a callee whose summary
			// says it mutates that parameter is a write by proxy
			// (patchRows(f.rows) with func patchRows(rows [][]float64)
			// { rows[0][0] = ... }) — the cross-function hole the old
			// per-function pass could not see. Constructor-prefixed callees
			// are exempt, same as direct writes.
			callee := pass.Prog.FuncOfCall(info, n)
			if callee == nil || strings.HasPrefix(callee.Func.Name(), fusedConstructor) {
				return true
			}
			exprs, idx := pass.Prog.CallArgs(info, n, callee)
			for i, arg := range exprs {
				if idx[i] < len(callee.Summary.Params) &&
					callee.Summary.Params[idx[i]]&analysis.ParamMutated != 0 &&
					(fusedAliased(info, aliases, arg) || fusedReceiver(info, arg)) {
					pass.Reportf(arg.Pos(),
						"FusedLinear backing memory passed to %s, which mutates its parameter, violates the rebuild-on-swap immutability contract; construct a fresh matrix instead", callee.ID)
				}
			}
		}
		return true
	})
}

// fusedWriteTarget classifies an lvalue: is it a FusedLinear field or an
// element of a FusedLinear backing array?
func fusedWriteTarget(info *types.Info, aliases map[types.Object]bool, lhs ast.Expr) (string, bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if fusedReceiver(info, l.X) {
			return "field " + l.Sel.Name, true
		}
		// Field of an element of a backing array: f.cells[0].w = ...
		if fusedAliased(info, aliases, l.X) {
			return "backing array element", true
		}
	case *ast.IndexExpr:
		if fusedAliased(info, aliases, l.X) {
			return "backing array element", true
		}
	case *ast.StarExpr:
		if fusedAliased(info, aliases, l.X) {
			return "backing memory", true
		}
	}
	return "", false
}

// fusedReceiver reports whether expr has type (*)FusedLinear.
func fusedReceiver(info *types.Info, expr ast.Expr) bool {
	t := info.TypeOf(expr)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == fusedTypeName
}

// fusedAliased reports whether e aliases FusedLinear backing memory: a
// field selection on a FusedLinear, a method call on one returning a
// slice, a slice/index over such an alias, or a tainted local.
func fusedAliased(info *types.Info, aliases map[types.Object]bool, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return obj != nil && aliases[obj]
	case *ast.SelectorExpr:
		return fusedReceiver(info, e.X) || fusedAliased(info, aliases, e.X)
	case *ast.IndexExpr:
		return fusedAliased(info, aliases, e.X)
	case *ast.SliceExpr:
		return fusedAliased(info, aliases, e.X)
	case *ast.StarExpr:
		return fusedAliased(info, aliases, e.X)
	case *ast.CallExpr:
		// A method on FusedLinear returning a slice hands out backing
		// memory (Tags); ScoreEntriesInto's result is fresh or the
		// caller's own dst, which is the caller's memory, not the
		// matrix's. Only slice results of receiver methods with no
		// arguments are treated as aliases.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && len(e.Args) == 0 && fusedReceiver(info, sel.X) {
			if t := info.TypeOf(e); t != nil {
				_, isSlice := t.Underlying().(*types.Slice)
				return isSlice
			}
		}
	}
	return false
}
