// Command census checks that every exported func and method under internal/
// can be reached from a command: it type-checks every non-test package of the
// module from source, walks the reference graph from the main packages, and
// prints what it could not reach.
//
// Nodes are funcs, methods, named types and package-level vars and consts; a
// node's edges are the objects its declaration names (types.Info.Uses, which
// resolves selectors and promoted methods to the declaring object). Roots are
// every func and var of every main package, and every init. Test files are not
// loaded, so a func only tests call is unreachable. The main packages under
// examples/ are walked last, and an exported func only they reach is flagged
// like one nothing reaches: an example shows the API, it does not keep code
// alive.
//
// A method nothing selects is still reached when a value of its type can be
// behind an interface that has it. The census approximates "can be" by "the
// type is reachable, the interface is in play, and the type implements it";
// an interface is in play when reachable code names it, writes it as a
// literal, selects a method on a value of it, or uses a standard-library
// func, method or field whose signature takes it (sort.Sort's data,
// http.Server.Handler), plus the handful in calledByStdlib that the library
// reaches by type assertion. So a Close on a type that is never used as an
// io.Closer is flagged, whoever else has a Close.
//
// A second pass checks fields: an exported field of an exported struct type
// under internal/ that no non-test code sets is an option nobody sets. A field
// is set where code keys it in a composite literal (an unkeyed literal sets
// every field), assigns it (=, op=, ++, --), takes its address, slices it (an
// array) or calls a pointer-receiver method on it; writing a field of a struct
// value or an element of an array also writes the value or array. One write
// does not count: an assignment in the field's own package inside an if whose
// condition compares that field with its zero value (== 0, == "", == nil,
// <= 0). That is the package's default, not a caller.
//
// bench/ is walked after the commands and before examples/. It keeps code
// alive, but what only it reaches or sets is printed after the findings,
// each as "bench only: name  file:line", for information: it does not
// change the exit status.
//
// It cannot see wire verbs or record kinds: a command no client sends and a
// record no reader wants both pass.
//
// Usage, from the module root:
//
//	go run ./scripts/census
//
// Each unreachable exported func or method under internal/ is printed as
// "pkg.Type.Method  file:line", each unset field as "pkg.Type.Field
// file:line". The exit status is 1 if one of them is not in
// scripts/census.allow (name, then the reason it stays; # starts a comment; a
// type's name covers all of its fields) or if a line there names something
// that is no longer flagged, so the list can only shrink.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(".", "scripts/census.allow", os.Stdout, os.Stderr))
}

// run is main without the process: the exit status, findings on stdout,
// complaints on stderr.
func run(dir, allowPath string, stdout, stderr io.Writer) int {
	allowed, err := readAllowlist(allowPath)
	if err != nil {
		fmt.Fprintln(stderr, "census:", err)
		return 2
	}
	l, err := load(dir)
	if err != nil {
		fmt.Fprintln(stderr, "census:", err)
		return 2
	}
	g := newGraph(l)
	if err := g.reach(); err != nil {
		fmt.Fprintln(stderr, "census:", err)
		return 2
	}

	var unlisted, stale []string
	used := map[string]bool{}
	unset := unsetFields(l, true)
	findings := append(g.funcs(func(obj types.Object) bool { return !g.core[obj] }), unset...)
	sortFindings(findings)
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s  %s\n", f.name, f.pos)
		switch {
		case allowed[f.name] != "":
			used[f.name] = true
		case f.typ != "" && allowed[f.typ] != "":
			used[f.typ] = true
		default:
			unlisted = append(unlisted, f.name)
		}
	}
	for name := range allowed {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, f := range benchOnly(g, unset) {
		fmt.Fprintf(stdout, "bench only: %s  %s\n", f.name, f.pos)
	}
	if len(unlisted) > 0 {
		fmt.Fprintf(stderr, "census: no command reaches or sets %s: give each a caller, unexport it, delete it, or list it in %s with the reason it stays\n", strings.Join(unlisted, ", "), allowPath)
	}
	if len(stale) > 0 {
		fmt.Fprintf(stderr, "census: %s lists %s, no longer flagged: drop the lines\n", allowPath, strings.Join(stale, ", "))
	}
	if len(unlisted)+len(stale) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "census: ok (%d allowlisted)\n", len(allowed))
	return 0
}

// readAllowlist returns name -> reason. A name without a reason is an error:
// the reason is what a later reader checks the line against.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		allowed[name] = reason
	}
	return allowed, sc.Err()
}

// A pkg is one type-checked non-test package of the module.
type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// A loader type-checks the module's packages itself, so that an object has
// one identity whichever package names it, and hands everything else to the
// source importer.
type loader struct {
	root    string // absolute module root
	modpath string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*pkg // by import path; nil while loading
	order   []*pkg
}

func load(dir string) (*loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{root: root, fset: token.NewFileSet(), pkgs: map[string]*pkg{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			l.modpath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if l.modpath == "" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	// Pure-Go file sets everywhere: the source importer, which reads
	// build.Default, would otherwise run cgo (and need a C compiler) for net
	// and os/user.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil)

	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || name == "vendor" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
		}
		rel, _ := filepath.Rel(root, path)
		ipath := l.modpath
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(ipath)
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil
		}
		return err
	})
	return l, err
}

func (l *loader) inModule(path string) bool {
	return path == l.modpath || strings.HasPrefix(path, l.modpath+"/")
}

func (l *loader) isBench(path string) bool {
	return path == l.modpath+"/bench" || strings.HasPrefix(path, l.modpath+"/bench/")
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *loader) load(ipath string) (*pkg, error) {
	if p, ok := l.pkgs[ipath]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", ipath)
		}
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(ipath, l.modpath), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l.pkgs[ipath] = nil
	p := &pkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles { // GoFiles has no _test.go files
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(ipath, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[ipath] = p
	l.order = append(l.order, p)
	return p, nil
}

// calledByStdlib is type-checked like any package and every interface it
// mentions is in play from the start: the ones the standard library reaches
// by asserting on a value it was handed as something else (fmt on any,
// errors on error, io.Copy on Reader and Writer, encoding/json on any).
const calledByStdlib = `package calledbystdlib

import (
	"encoding"
	"encoding/json"
	"fmt"
	"io"
)

var _ = []any{
	(*error)(nil), (*fmt.Stringer)(nil), (*fmt.GoStringer)(nil), (*fmt.Formatter)(nil),
	(*interface{ Unwrap() error })(nil), (*interface{ Unwrap() []error })(nil),
	(*interface{ Is(error) bool })(nil), (*interface{ As(any) bool })(nil),
	(*interface{ Timeout() bool })(nil), (*interface{ Temporary() bool })(nil),
	(*io.WriterTo)(nil), (*io.ReaderFrom)(nil), (*io.StringWriter)(nil),
	(*json.Marshaler)(nil), (*json.Unmarshaler)(nil),
	(*encoding.TextMarshaler)(nil), (*encoding.TextUnmarshaler)(nil),
}
`

// A graph is the reference graph over the module's package-level objects.
type graph struct {
	l      *loader
	decl   map[types.Object]*declared
	roots  []types.Object // the commands' and every init
	bench  []types.Object // bench/'s, walked second
	demos  []types.Object // examples/' main packages, walked last
	seen   map[types.Object]bool
	cmds   map[types.Object]bool // seen before bench/ was walked
	core   map[types.Object]bool // seen before the demos were walked
	work   []types.Object
	types  []*types.Named            // reachable module types with methods to keep
	ifaces map[*types.Interface]bool // interfaces in play
}

// declared is what a node's declaration mentions.
type declared struct {
	uses   []types.Object     // module objects named
	ifaces []*types.Interface // interfaces named, written or taken by something external it uses
}

func newGraph(l *loader) *graph {
	g := &graph{l: l, decl: map[types.Object]*declared{}, seen: map[types.Object]bool{}, ifaces: map[*types.Interface]bool{}}
	for _, p := range l.order {
		isMain := p.types.Name() == "main"
		roots := &g.roots
		switch path := p.types.Path(); {
		case strings.HasPrefix(path, l.modpath+"/examples/"):
			roots = &g.demos
		case l.isBench(path):
			roots = &g.bench
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					g.decl[obj] = g.mentions(p, d)
					if isMain || (d.Recv == nil && d.Name.Name == "init") {
						*roots = append(*roots, obj)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							g.decl[p.info.Defs[spec.Name]] = g.mentions(p, spec)
						case *ast.ValueSpec:
							m := g.mentions(p, spec)
							for _, name := range spec.Names {
								// A blank var is a compile-time assertion
								// (var _ I = T{}): it keeps nothing alive.
								if obj := p.info.Defs[name]; obj != nil && name.Name != "_" {
									g.decl[obj] = m
									if _, isVar := obj.(*types.Var); isVar && isMain {
										*roots = append(*roots, obj)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return g
}

// mentions collects what the syntax under n refers to.
func (g *graph) mentions(p *pkg, n ast.Node) *declared {
	m := &declared{}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			m.ifaces = append(m.ifaces, it)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.InterfaceType:
			addIface(p.info.TypeOf(n))
		case *ast.SelectorExpr:
			// x.M() on an interface-typed x puts x's whole interface in
			// play, not just the one that declared M (resp.Body.Close() is
			// a call on an io.ReadCloser, not on every io.Closer).
			if sel := p.info.Selections[n]; sel != nil {
				addIface(sel.Recv())
			}
		case *ast.Ident:
			obj := p.info.Uses[n]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.TypeName:
				addIface(o.Type())
			case *types.Var, *types.Const:
			default:
				return true // a package name, a label
			}
			if g.l.inModule(obj.Pkg().Path()) {
				if v, ok := obj.(*types.Var); ok && (v.IsField() || v.Parent() != v.Pkg().Scope()) {
					return true // fields and locals are not nodes
				}
				m.uses = append(m.uses, obj)
				return true
			}
			// Something external: whatever interfaces it takes, the
			// library may call through.
			switch t := obj.Type().(type) {
			case *types.Signature:
				for i := 0; i < t.Params().Len(); i++ {
					pt := t.Params().At(i).Type()
					if s, ok := pt.(*types.Slice); ok && t.Variadic() && i == t.Params().Len()-1 {
						pt = s.Elem()
					}
					addIface(pt)
				}
			default:
				if _, isVar := obj.(*types.Var); isVar {
					addIface(t)
				}
			}
		}
		return true
	})
	return m
}

func (g *graph) mark(obj types.Object) {
	if !g.seen[obj] {
		g.seen[obj] = true
		g.work = append(g.work, obj)
	}
}

// reach marks everything the roots lead to, then what bench/ leads to, then
// what the demos lead to, keeping in cmds what the first walk reached and
// in core what the first two did.
func (g *graph) reach() error {
	std := &pkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	f, err := parser.ParseFile(g.l.fset, "calledbystdlib.go", calledByStdlib, parser.SkipObjectResolution)
	if err == nil {
		conf := types.Config{Importer: g.l}
		_, err = conf.Check("calledbystdlib", g.l.fset, []*ast.File{f}, std.info)
	}
	if err != nil {
		return fmt.Errorf("calledByStdlib: %w", err)
	}
	for _, it := range g.mentions(std, f).ifaces {
		g.play(it)
	}
	for _, r := range g.roots {
		g.mark(r)
	}
	g.walk()
	g.cmds = maps.Clone(g.seen)
	for _, r := range g.bench {
		g.mark(r)
	}
	g.walk()
	g.core = maps.Clone(g.seen)
	for _, r := range g.demos {
		g.mark(r)
	}
	g.walk()
	return nil
}

// walk marks what the marked objects lead to.
func (g *graph) walk() {
	for len(g.work) > 0 {
		obj := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && !types.IsInterface(named) {
				g.types = append(g.types, named)
				for it := range g.ifaces {
					g.keep(named, it)
				}
			}
		}
		d := g.decl[obj]
		if d == nil {
			continue // a method of an instantiated or embedded external type
		}
		for _, u := range d.uses {
			g.mark(u)
		}
		for _, it := range d.ifaces {
			g.play(it)
		}
	}
}

// play puts an interface in play: every reachable type that implements it
// keeps the methods it asks for.
func (g *graph) play(it *types.Interface) {
	if g.ifaces[it] {
		return
	}
	g.ifaces[it] = true
	for _, named := range g.types {
		g.keep(named, it)
	}
}

// keep marks the methods of named (or of what it embeds) that satisfy it, if
// named or *named implements it. A generic type is matched by method name
// alone: it has no single method set to test.
func (g *graph) keep(named *types.Named, it *types.Interface) {
	ptr := types.NewPointer(named)
	if named.TypeParams().Len() == 0 && !types.Implements(named, it) && !types.Implements(ptr, it) {
		return
	}
	ms := types.NewMethodSet(ptr)
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok && fn.Pkg() != nil && g.l.inModule(fn.Pkg().Path()) {
				g.mark(fn.Origin())
			}
		}
	}
}

// A finding is one exported func or method under internal/ that nothing
// reaches, or one exported field there that nothing sets.
type finding struct {
	name string // pkg.Func, pkg.Type.Method or pkg.Type.Field, pkg relative to internal/
	pos  string // file:line relative to the module root
	typ  string // pkg.Type for a field, whose allowlist line covers it too
}

func (l *loader) position(obj types.Object) string {
	pos := l.fset.Position(obj.Pos())
	rel, _ := filepath.Rel(l.root, pos.Filename)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].name != fs[j].name {
			return fs[i].name < fs[j].name
		}
		return fs[i].pos < fs[j].pos
	})
}

// funcs lists the exported funcs and methods under internal/ that pick
// picks: those no command or benchmark reaches (whether or not an example
// does) are the census's findings.
func (g *graph) funcs(pick func(types.Object) bool) []finding {
	var out []finding
	for obj := range g.decl {
		fn, isFunc := obj.(*types.Func)
		path := obj.Pkg().Path()
		if !isFunc || !obj.Exported() || !strings.HasPrefix(path, g.l.modpath+"/internal/") || !pick(obj) {
			continue
		}
		short := strings.TrimPrefix(path, g.l.modpath+"/internal/")
		name := short + "." + obj.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				name = short + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
		out = append(out, finding{name: name, pos: g.l.position(obj)})
	}
	return out
}

// benchOnly lists what only bench/ keeps alive: the funcs and methods the
// commands do not reach and bench/ does, and the fields only bench/ sets
// (unset is unsetFields with bench/ counted).
func benchOnly(g *graph, unset []finding) []finding {
	out := g.funcs(func(obj types.Object) bool { return g.core[obj] && !g.cmds[obj] })
	stillUnset := map[string]bool{}
	for _, f := range unset {
		stillUnset[f.name] = true
	}
	for _, f := range unsetFields(g.l, false) {
		if !stillUnset[f.name] {
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// unsetFields returns the exported fields of exported struct types under
// internal/ that no non-test code sets, counting bench/'s code as a setter
// only with bench.
func unsetFields(l *loader, bench bool) []finding {
	set := map[*types.Var]bool{}
	for _, p := range l.order {
		if !bench && l.isBench(p.types.Path()) {
			continue
		}
		info := p.info
		write := func(e ast.Expr) {
			for _, v := range written(info, e) {
				set[v] = true
			}
		}
		for _, f := range p.files {
			defaults := map[ast.Expr]bool{} // assignment targets that are p's own defaults
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					// Under an if that compares a field of p with its zero
					// value, assigning that field is p's default. Inspect
					// visits the body after this, so the map is ready.
					guarded := zeroCompared(info, n.Cond, map[*types.Var]bool{})
					if len(guarded) == 0 {
						break
					}
					ast.Inspect(n.Body, func(n ast.Node) bool {
						for _, lhs := range targets(n) {
							if ws := written(info, lhs); len(ws) > 0 && guarded[ws[0]] && ws[0].Pkg() == p.types {
								defaults[lhs] = true
							}
						}
						return true
					})
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if pt, ok := t.(*types.Pointer); ok {
						t = pt.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							set[st.Field(i).Origin()] = true
						}
						break
					}
					for _, e := range n.Elts {
						if k, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
							if v, ok := info.Uses[k].(*types.Var); ok {
								set[v.Origin()] = true
							}
						}
					}
				case *ast.AssignStmt, *ast.IncDecStmt:
					for _, lhs := range targets(n) {
						if !defaults[lhs] {
							write(lhs)
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.SliceExpr:
					if _, ok := info.TypeOf(n.X).Underlying().(*types.Array); ok {
						write(n.X)
					}
				case *ast.SelectorExpr:
					// x.F.M() with M on *T takes x.F's address.
					if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
						recv := sel.Obj().Type().(*types.Signature).Recv()
						_, ptrRecv := recv.Type().(*types.Pointer)
						_, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer)
						if ptrRecv && !ptrX {
							write(n.X)
						}
					}
				}
				return true
			})
		}
	}

	var out []finding
	for _, p := range l.order {
		path := p.types.Path()
		if !strings.HasPrefix(path, l.modpath+"/internal/") {
			continue
		}
		short := strings.TrimPrefix(path, l.modpath+"/internal/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typ := short + "." + name
			for i := 0; i < st.NumFields(); i++ {
				if v := st.Field(i); v.Exported() && !set[v] {
					out = append(out, finding{name: typ + "." + v.Name(), pos: l.position(v), typ: typ})
				}
			}
		}
	}
	return out
}

// written returns the fields that writing e writes: the field e selects and,
// while that field is part of a struct value or an array it indexes, the
// fields holding those.
func written(info *types.Info, e ast.Expr) []*types.Var {
	var out []*types.Var
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			v, ok := info.Uses[x.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return out
			}
			out = append(out, v.Origin())
			if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return out
			}
			e = x.X
		case *ast.IndexExpr:
			if _, arr := info.TypeOf(x.X).Underlying().(*types.Array); !arr {
				return out
			}
			e = x.X
		default:
			return out
		}
	}
}

// targets returns what an assignment or ++/-- statement assigns.
func targets(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok != token.DEFINE {
			return n.Lhs
		}
	case *ast.IncDecStmt:
		return []ast.Expr{n.X}
	}
	return nil
}

// zeroCompared adds to into the fields cond compares with their zero value
// (x.F == 0, == "", == nil, <= 0), through &&: a branch that also runs when
// the field is set (||) is not a default.
func zeroCompared(info *types.Info, cond ast.Expr, into map[*types.Var]bool) map[*types.Var]bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return into
	}
	switch b.Op {
	case token.LAND:
		zeroCompared(info, b.X, into)
		zeroCompared(info, b.Y, into)
	case token.EQL, token.LEQ:
		if sel, ok := ast.Unparen(b.X).(*ast.SelectorExpr); ok && isZero(info, b.Y) {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				into[v.Origin()] = true
			}
		}
	}
	return into
}

func isZero(info *types.Info, e ast.Expr) bool {
	switch tv := info.Types[e]; {
	case tv.IsNil():
		return true
	case tv.Value == nil:
		return false
	case tv.Value.Kind() == constant.String:
		return constant.StringVal(tv.Value) == ""
	case tv.Value.Kind() == constant.Int || tv.Value.Kind() == constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
