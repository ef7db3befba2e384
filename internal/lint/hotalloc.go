package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc checks that functions annotated //amg:hotpath contain no
// allocation constructs. The annotation marks the kernel set whose
// zero-alloc contract the runtime gates (alloc_test.go) sample; the
// analyzer enforces it on every annotated body at compile time:
//
//   - make, new, and append (slice growth) calls
//   - slice and map composite literals, and taking the address of any
//     composite literal (struct and array value literals are stack
//     values and allowed)
//   - closure (func literal) creation, except literals passed directly
//     to the par runtime (For, ForBlocks and ReduceSum bodies are the
//     repo's parallelism idiom; their handoff cost is what the
//     workers==1 inline fast path and the alloc gates measure)
//   - go and defer statements
//   - allocating string conversions (string <-> []byte/[]rune, string(rune))
//   - calls into fmt (formatting allocates)
//   - variadic calls that materialize an argument slice
//   - arguments boxed into interface parameters, type-parameter values
//     included (panic is exempt: unwinding is never the hot path)
//
// The annotation is matched on methods as well as free functions.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "check //amg:hotpath functions for allocation constructs",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, "//amg:hotpath") {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
	return nil
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	name := funcName(fd)
	// parExempt records func literals passed directly to the par
	// runtime; the literal itself is allowed but its body is still
	// walked (it runs inside the hot loop).
	parExempt := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath %s starts a goroutine", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hotpath %s defers (allocates a defer record in loops)", name)
		case *ast.FuncLit:
			if !parExempt[n] {
				pass.Reportf(n.Pos(), "hotpath %s creates a closure (captured variables escape)", name)
			}
		case *ast.CompositeLit:
			// Struct and array value literals live on the stack; slice
			// and map literals allocate their backing store.
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "hotpath %s allocates a slice literal", name)
				case *types.Map:
					pass.Reportf(n.Pos(), "hotpath %s allocates a map literal", name)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hotpath %s takes the address of a composite literal (escapes to the heap)", name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, info, n, name, parExempt)
		}
		return true
	})
}

func checkHotCall(pass *Pass, info *types.Info, call *ast.CallExpr, name string, parExempt map[*ast.FuncLit]bool) {
	// Type conversions: only string-ish conversions allocate.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 && allocatingConversion(info, tv.Type, call.Args[0]) {
			pass.Reportf(call.Pos(), "hotpath %s performs an allocating string conversion", name)
		}
		return
	}
	obj := calleeObj(info, call)
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make":
			pass.Reportf(call.Pos(), "hotpath %s calls make", name)
		case "new":
			pass.Reportf(call.Pos(), "hotpath %s calls new", name)
		case "append":
			pass.Reportf(call.Pos(), "hotpath %s calls append (growth allocates)", name)
		case "panic":
			// Unwinding is cold; boxing the panic value is fine.
		}
		return
	}
	if isPkgFunc(info, call, "fmt") {
		pass.Reportf(call.Pos(), "hotpath %s calls into fmt (formatting allocates)", name)
		return
	}
	if isPkgFunc(info, call, "par") {
		// Participant closures handed to the par runtime are the
		// sanctioned parallelism idiom; mark direct literal arguments
		// exempt (their bodies are still checked by the walk).
		for _, arg := range call.Args {
			if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				parExempt[fl] = true
			}
		}
		return
	}
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
		pass.Reportf(call.Pos(), "hotpath %s makes a variadic call (argument slice allocates)", name)
		return
	}
	// Boxing: a concrete value passed where an interface is expected.
	for i, arg := range call.Args {
		pi := i
		if pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi < 0 {
			break
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if !isInterfaceType(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || isInterfaceType(at) || isUntypedNil(info, arg) {
			continue
		}
		pass.Reportf(arg.Pos(), "hotpath %s boxes %s into interface %s", name, at, pt)
	}
}

// isInterfaceType reports whether values of t are interface values.
// types.IsInterface is also true for a type parameter (its underlying
// type is the constraint interface), but a type-parameter value is a
// concrete value at run time: passing one to an interface parameter
// boxes it, and passing one to a parameter of the same type parameter
// does not.
func isInterfaceType(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t)
}

func allocatingConversion(info *types.Info, to types.Type, from ast.Expr) bool {
	ft := info.TypeOf(from)
	if ft == nil {
		return false
	}
	toS := isStringType(to)
	fromS := isStringType(ft)
	if toS && !fromS {
		return true // string([]byte), string([]rune), string(rune)
	}
	if fromS && isByteOrRuneSlice(to) {
		return true // []byte(s), []rune(s)
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
