package lintrules

// Conservative interprocedural purity analysis. Every module package
// gets a summary ("facts"): for each declared function, the call chain
// — if any — from it to a forbidden determinism source. Summaries
// travel between packages through the vet driver's .vetx files
// (cmd/loggpvet serializes PackageFacts as JSON), so by the time an
// entry-point package (policy.PurityEntry) is analyzed, a call into a
// helper package that reads the wall clock three calls down is visible
// with the full chain.
//
// The call graph is deliberately conservative in the *sound-for-what-
// it-claims* direction: it covers static calls only — direct calls to
// package functions and methods resolved by go/types. Calls through
// function values, interface methods, and goroutine entry literals are
// not edges (a reported chain is therefore always a real syntactic
// path; absence of a report is not a purity proof). DESIGN.md §5j
// records the trade-off.
//
// Forbidden sources:
//
//	wallclock  time.Now / time.Since / time.Until
//	globalrand package-level math/rand and math/rand/v2 (constructors excepted)
//	env        os.Getenv / os.LookupEnv / os.Environ
//	mapiter    a map range whose iteration escapes (return, channel send,
//	           append or indexed write to an outer collection) without a
//	           subsequent sort of the collected values
//
// A finding is emitted only at the package boundary: the entry-package
// function whose chain's first hop leaves the package (direct sources
// inside entry packages are the single-pass rules' job — except env,
// which has no single-pass rule and is reported directly).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TaintStep is one frame of a purity chain: a call (or, on the last
// step, the forbidden source itself) and its position.
type TaintStep struct {
	Desc string `json:"desc"`
	Pos  string `json:"pos"`
}

// Taint records one forbidden-source kind reachable from a function,
// with the (first discovered, deterministic) call chain to it.
type Taint struct {
	// Kind is one of wallclock, globalrand, env, mapiter.
	Kind string `json:"kind"`
	// Chain leads from the function's own body to the source; the last
	// step is the source.
	Chain []TaintStep `json:"chain"`
	// local: the source is lexically inside the package that owns this
	// taint (not serialized — consumers re-derive their own locality).
	local bool
	// boundary: the first hop of the chain is a call into another
	// package (derived from dependency facts).
	boundary bool
}

// PackageFacts is the serializable purity summary of one package.
type PackageFacts struct {
	Version int `json:"version"`
	// Taints maps a function's full name — "pkg.Func" or
	// "(pkg.Recv).Method" — to its taints, sorted by Kind.
	Taints map[string][]Taint `json:"taints,omitempty"`
}

// FactsVersion guards the .vetx wire format; bump on incompatible
// change (cmd/loggpvet folds it into its -V=full fingerprint so the
// vet cache never mixes formats).
const FactsVersion = 1

// kindDesc renders a source kind for diagnostics.
func kindDesc(kind string) string {
	switch kind {
	case "wallclock":
		return "the wall clock"
	case "globalrand":
		return "the global math/rand generator"
	case "env":
		return "the process environment"
	case "mapiter":
		return "order-escaping map iteration"
	}
	return kind
}

// fnInfo is one declared function during the intra-package fixed point.
type fnInfo struct {
	fn     *types.Func
	name   string // FullName
	decl   *ast.FuncDecl
	taints map[string]*Taint // kind → chain
}

// analyzePurity computes the package's facts and, for entry-point
// packages, the boundary findings.
func analyzePurity(p *Pass, pol Policy) (*PackageFacts, []Finding) {
	posOf := func(pos token.Pos) string { return p.Fset.Position(pos).String() }

	// Collect declared functions (non-test files only) in file order.
	var fns []*fnInfo
	byObj := map[*types.Func]*fnInfo{}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{fn: fn, name: fn.FullName(), decl: decl, taints: map[string]*Taint{}}
			fns = append(fns, fi)
			byObj[fn] = fi
		}
	}

	// Direct sources and cross-package edges: one scan per function.
	type edge struct {
		caller *fnInfo
		callee *fnInfo // intra-package target
		pos    token.Pos
		desc   string
	}
	var edges []edge
	for _, fi := range fns {
		fi := fi
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := p.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap && mapIterEscapes(p.Info, fi.decl.Body, n) {
						fi.addTaint("mapiter", Taint{
							Kind:  "mapiter",
							Chain: []TaintStep{{Desc: "map iteration escapes into ordering-sensitive values", Pos: posOf(n.Pos())}},
							local: true,
						})
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					// Methods: only intra-module declared methods can be
					// edges; stdlib sources are all package functions.
					if target, ok := byObj[fn]; ok {
						edges = append(edges, edge{fi, target, n.Pos(), "calls " + fn.FullName()})
					} else if df := depTaints(p, fn); df != nil {
						fi.deriveFromDep(fn, df, posOf(n.Pos()))
					}
					return true
				}
				pkg, name := fn.Pkg().Path(), fn.Name()
				switch {
				case pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
					fi.addTaint("wallclock", Taint{Kind: "wallclock",
						Chain: []TaintStep{{Desc: "time." + name + " (wall clock)", Pos: posOf(n.Pos())}}, local: true})
				case (pkg == "math/rand" || pkg == "math/rand/v2") && !randConstructors[name]:
					fi.addTaint("globalrand", Taint{Kind: "globalrand",
						Chain: []TaintStep{{Desc: pkgSegment(pkg) + "." + name + " (global generator)", Pos: posOf(n.Pos())}}, local: true})
				case pkg == "os" && (name == "Getenv" || name == "LookupEnv" || name == "Environ"):
					fi.addTaint("env", Taint{Kind: "env",
						Chain: []TaintStep{{Desc: "os." + name + " (process environment)", Pos: posOf(n.Pos())}}, local: true})
				default:
					if target, ok := byObj[fn]; ok {
						edges = append(edges, edge{fi, target, n.Pos(), "calls " + fn.FullName()})
					} else if df := depTaints(p, fn); df != nil {
						fi.deriveFromDep(fn, df, posOf(n.Pos()))
					}
				}
			}
			return true
		})
	}

	// Intra-package fixed point: propagate callee taints to callers
	// until stable. Edges are in deterministic (file, position) order,
	// so the first-discovered chain for each (function, kind) is stable
	// run to run.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			for _, kind := range sortedKinds(e.callee.taints) {
				t := e.callee.taints[kind]
				if _, ok := e.caller.taints[kind]; ok {
					continue
				}
				chain := append([]TaintStep{{Desc: e.desc, Pos: posOf(e.pos)}}, t.Chain...)
				e.caller.taints[kind] = &Taint{Kind: kind, Chain: chain, local: t.local}
				changed = true
			}
		}
	}

	// Serialize facts.
	facts := &PackageFacts{Version: FactsVersion}
	for _, fi := range fns {
		if len(fi.taints) == 0 {
			continue
		}
		if facts.Taints == nil {
			facts.Taints = map[string][]Taint{}
		}
		var ts []Taint
		for _, kind := range sortedKinds(fi.taints) {
			ts = append(ts, *fi.taints[kind])
		}
		facts.Taints[fi.name] = ts
	}

	// Boundary findings for entry-point packages.
	var out []Finding
	if pol.PurityEntry {
		for _, fi := range fns {
			for _, kind := range sortedKinds(fi.taints) {
				t := fi.taints[kind]
				direct := t.local && len(t.Chain) == 1
				if !t.boundary && !(direct && kind == "env") {
					// Direct wallclock/globalrand/mapiter inside an entry
					// package is the single-pass rules' report;
					// intra-package transitive chains are reported at the
					// function that actually crosses the boundary (or
					// holds the direct source).
					continue
				}
				frames := make([]string, 0, len(t.Chain)+1)
				frames = append(frames, fi.name)
				for _, step := range t.Chain {
					frames = append(frames, fmt.Sprintf("%s (%s)", step.Desc, step.Pos))
				}
				pos := t.Chain[0].Pos
				out = append(out, Finding{
					Pos:   parsePosition(pos),
					Rule:  "purity",
					Msg:   fmt.Sprintf("%s reaches %s: %s", fi.name, kindDesc(kind), strings.Join(frames, " → ")),
					Chain: frames,
				})
			}
		}
	}
	return facts, out
}

func (fi *fnInfo) addTaint(kind string, t Taint) {
	if _, ok := fi.taints[kind]; !ok {
		fi.taints[kind] = &t
	}
}

// deriveFromDep folds a dependency function's taints into the caller.
func (fi *fnInfo) deriveFromDep(fn *types.Func, ts []Taint, callPos string) {
	for _, t := range ts {
		if _, ok := fi.taints[t.Kind]; ok {
			continue
		}
		chain := append([]TaintStep{{Desc: "calls " + fn.FullName(), Pos: callPos}}, t.Chain...)
		fi.taints[t.Kind] = &Taint{Kind: t.Kind, Chain: chain, boundary: true}
	}
}

// depTaints looks up the facts of an in-module dependency function.
func depTaints(p *Pass, fn *types.Func) []Taint {
	if p.DepFacts == nil || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if path == p.PkgPath {
		return nil
	}
	if path != p.Module && !strings.HasPrefix(path, p.Module+"/") {
		return nil
	}
	facts := p.DepFacts(path)
	if facts == nil {
		return nil
	}
	return facts.Taints[fn.FullName()]
}

func sortedKinds(m map[string]*Taint) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// parsePosition rebuilds a token.Position from its file:line:col string
// form (facts carry positions as strings so they survive serialization
// across packages with unrelated FileSets).
func parsePosition(s string) token.Position {
	pos := token.Position{Filename: s}
	// Split from the right: the filename may contain colons on other
	// platforms, line and column never do.
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		if j := strings.LastIndexByte(s[:i], ':'); j >= 0 {
			var line, col int
			if _, err := fmt.Sscanf(s[j+1:], "%d:%d", &line, &col); err == nil {
				pos.Filename, pos.Line, pos.Column = s[:j], line, col
			}
		}
	}
	return pos
}

// sortingFuncs are the stdlib calls that impose a deterministic order
// on their first argument, discharging a collect-then-sort append.
var sortingFuncs = map[string]bool{
	"sort.Sort": true, "sort.Stable": true,
	"sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// mapIterEscapes is the conservative escape heuristic for map ranges:
// the iteration order is deemed to reach ordering-sensitive values when
// the loop body returns, sends on a channel, writes through an index
// into an outer slice or array, or appends to an outer slice that is
// never subsequently sorted in the same function. Writes to outer maps
// and scalar counters stay exempt (order-insensitive), as does the
// collect-then-sort idiom.
func mapIterEscapes(info *types.Info, fnBody *ast.BlockStmt, loop *ast.RangeStmt) bool {
	outer := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil || (obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()) {
			return nil
		}
		return obj
	}
	escapes := false
	var appended []types.Object
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt, *ast.SendStmt:
			escapes = true
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					// s[i] = v into an outer slice/array is order-exposed
					// when i varies with iteration; writes into maps are
					// keyed, hence order-free.
					if obj := outer(l.X); obj != nil {
						if _, isMap := obj.Type().Underlying().(*types.Map); !isMap {
							escapes = true
						}
					}
				case *ast.Ident:
					// x = append(x, ...) collection building.
					if i < len(n.Rhs) {
						if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
							if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
								if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
									if obj := outer(l); obj != nil {
										appended = append(appended, obj)
									}
									continue
								}
							}
						}
					}
					// String concatenation onto an outer string.
					if n.Tok == token.ADD_ASSIGN {
						if obj := outer(l); obj != nil {
							if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
								escapes = true
							}
						}
					}
				}
			}
		}
		return !escapes
	})
	if escapes {
		return true
	}
	if len(appended) == 0 {
		return false
	}
	// Collect-then-sort suppression: each appended collection must be
	// sorted somewhere in the same function.
	sorted := map[types.Object]bool{}
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkg, name := stdFunc(info, call)
		if !sortingFuncs[pkg+"."+name] {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				sorted[obj] = true
			}
		}
		return true
	})
	for _, obj := range appended {
		if !sorted[obj] {
			return true
		}
	}
	return false
}
