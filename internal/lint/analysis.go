// Package lint is amglint's analysis framework: a stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis surface this
// repo needs, plus the analyzers that machine-check the repo's prose
// contracts (DESIGN.md "Concurrency contract per package" and the
// determinism/zero-alloc invariants behind the bitwise gates).
//
// Why not x/tools: the module has no external dependencies and the
// build environment is offline, so the Analyzer/Pass/Diagnostic shapes
// are reproduced here on go/ast + go/types directly. The API surface is
// kept intentionally close to go/analysis so analyzers could be ported
// to the real framework by changing imports.
//
// Annotation conventions recognized by the analyzers:
//
//	//amg:hotpath       on a function or method: the body must be free
//	                    of allocation constructs (hotalloc).
//	//amg:deterministic in a package comment: the package's non-test
//	                    files must be free of scheduling- or
//	                    time-dependent constructs (detorder).
//	//amg:atomic        on a struct type: all fields must be sync/atomic
//	                    values and may only be used as method-call
//	                    receivers or address-of operands (atomicfield).
//
// Directive comments (//amg:...) are written without a space after //,
// like //go:noinline, so gofmt preserves them and ast.CommentGroup.Text
// (which strips directives) does not fold them into rendered godoc.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check: a name for diagnostics and
// enable/disable flags, a doc string, and the Run function applied once
// per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer, mirroring analysis.Pass.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives each diagnostic; installed by the driver.
	report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// hasDirective reports whether the comment group contains the exact
// directive line (e.g. "//amg:hotpath"). Directives are matched on the
// raw comment text because CommentGroup.Text strips //tool:name lines.
func hasDirective(g *ast.CommentGroup, directive string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// packageHasDirective reports whether any file's package comment in the
// pass carries the directive.
func packageHasDirective(pass *Pass, directive string) bool {
	for _, f := range pass.Files {
		if hasDirective(f.Doc, directive) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file containing pos is a _test.go
// file. Analyzers whose contracts cover only shipped kernel code
// (hotalloc via annotations is self-scoping; detorder and ctxpoll are
// not) use this to skip test files.
func (p *Pass) isTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// funcName renders a diagnostic-friendly name for a FuncDecl.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	// Strip type parameters from generic receivers for display.
	switch rt := t.(type) {
	case *ast.Ident:
		return rt.Name + "." + fd.Name.Name
	case *ast.IndexExpr:
		if id, ok := rt.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	case *ast.IndexListExpr:
		if id, ok := rt.X.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

// calleeObj resolves the object a call expression invokes, or nil.
// Explicitly instantiated generic calls (f[T](...), pkg.F[T, U](...))
// resolve to the generic function; an index into a slice or map of
// funcs is not an instantiation and stays unresolved.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := info.Types[ix.Index]; ok && tv.IsType() {
			fun = ix.X
		}
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// isPkgFunc reports whether the call invokes a function or method whose
// package has the given package name (not path: analyzers match on name
// so fixtures can model the package without the real import path).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgName string) bool {
	obj := calleeObj(info, call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
