// The ctxflow rule. PR 2 made cancellation flow end to end — a
// request deadline or SIGINT reaches every worker — and that only
// holds if nothing along the call chain silently re-roots the context
// tree. Three checks:
//
//  1. context.Background() / context.TODO() are banned inside
//     internal/ packages: library code receives its context, it never
//     invents one. The documented exceptions are the non-ctx wrapper
//     shims (core ModelRecipe → ModelRecipeContext, faults.Inject →
//     InjectIndexedContext), which carry an explicit
//     //recipelint:allow with the reason.
//  2. In any package, a function that takes a ctx parameter must not
//     call context.Background()/TODO() or pass a nil context — it
//     already has the right context to thread.
//  3. In a function that takes a ctx parameter, calling F(...) when a
//     sibling FContext/FCtx accepting a context exists is an
//     un-threaded context: the cancellable variant must be used.

package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewCtxflow builds the ctxflow rule.
func NewCtxflow() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "require context threading: no Background/TODO in internal/, no dropping ctx when a Context-accepting variant exists",
		Run:  runCtxflow,
	}
}

func runCtxflow(p *Pass) {
	internal := isInternal(p.Pkg.Path)
	for _, f := range p.Pkg.Files {
		withStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(p.Info(), call)
			if fn == nil {
				return true
			}
			hasCtx := enclosingCtxParam(p.Info(), stack) != nil

			// Check 1 + 2: re-rooting the context tree.
			if fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
				(fn.Name() == "Background" || fn.Name() == "TODO") {
				switch {
				case hasCtx:
					p.Report(call.Pos(),
						"context."+fn.Name()+"() inside a function that already receives a ctx",
						"thread the function's ctx instead of re-rooting the context tree")
				case internal:
					p.Report(call.Pos(),
						"context."+fn.Name()+"() in internal package "+p.Pkg.Path,
						"accept a ctx parameter; only documented non-ctx wrapper shims may allow this")
				}
				return true
			}
			if !hasCtx {
				return true
			}

			// Check 2b: a nil context where a context is expected.
			sig := sigOf(fn)
			for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
				if !isContextType(sig.Params().At(i).Type()) {
					continue
				}
				if id, ok := ast.Unparen(call.Args[i]).(*ast.Ident); ok && id.Name == "nil" {
					if _, isNil := p.Info().Uses[id].(*types.Nil); isNil {
						p.Report(call.Args[i].Pos(),
							"nil context passed to "+fn.Name(),
							"pass the enclosing function's ctx")
					}
				}
			}

			// Check 3: a context-accepting sibling exists but the
			// non-ctx variant is called.
			if !acceptsContext(sig) {
				if sib := contextSibling(p, fn); sib != nil {
					p.Report(call.Pos(),
						"call to "+fn.Name()+" drops ctx; "+sib.Name()+" accepts one",
						"call "+sib.Name()+"(ctx, ...) so cancellation propagates")
				}
			}
			return true
		})
	}
}

// enclosingCtxParam returns the context parameter of the nearest
// enclosing function on the stack that has one (closures may capture
// an outer function's ctx), or nil.
func enclosingCtxParam(info *types.Info, stack []ast.Node) *types.Var {
	fns := enclosingFuncs(stack)
	for i := len(fns) - 1; i >= 0; i-- {
		if v := ctxParam(info, fns[i]); v != nil {
			return v
		}
	}
	return nil
}

// acceptsContext reports whether any parameter of sig is a
// context.Context.
func acceptsContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// contextSibling looks for a cancellable twin of fn — a function or
// method named <fn>Context or <fn>Ctx, in the same package (or method
// set), that accepts a context.Context.
func contextSibling(p *Pass, fn *types.Func) *types.Func {
	name := fn.Name()
	if fn.Pkg() == nil || strings.HasSuffix(name, "Context") || strings.HasSuffix(name, "Ctx") {
		return nil
	}
	for _, suffix := range []string{"Context", "Ctx"} {
		var obj types.Object
		if recv := recvOf(fn); recv != nil {
			obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name+suffix)
		} else {
			obj = fn.Pkg().Scope().Lookup(name + suffix)
		}
		sib, ok := obj.(*types.Func)
		if ok && acceptsContext(sigOf(sib)) {
			return sib
		}
	}
	return nil
}
