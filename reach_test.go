package harmonia

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations that no program reaches and that
// the module keeps on purpose, each with the rule that keeps it:
//
//  1. a test oracle: a second, naive implementation a test checks the
//     real one against;
//  2. a planned caller that a ROADMAP item names;
//  3. a paper application's model that a test drives end to end;
//  4. a catalog query or drill-facing accessor a test validates;
//  5. an accessor an external-package test reads to check behaviour
//     a program runs.
var reachAllow = map[string]string{
	// Rule 1: test oracles.
	"fleet.Cluster.candidates": "rule 1: the naive replica scan the dispatch index is checked against (index_test, TestDeterminism's layout ledger)",
	"metrics.Latencies.Count":  "rule 1: the exact latency list Histogram is checked against (hist_test)",
	"metrics.Latencies.Mean":   "rule 1: the exact latency list Histogram is checked against (hist_test)",
	"metrics.Latencies.Max":    "rule 1: the exact latency list Histogram is checked against (hist_test)",
	"metrics.Latencies.Min":    "rule 1: the exact latency list Histogram is checked against (hist_test)",
	"cmdif.JoinRows":           "rule 1: reassembles SplitRows output so the framing tests check the split loses no word",
	"hdl.ImportLibrary":        "rule 1: parses ExportLibrary output (through hdl.Import, per module) so package_test checks the export round-trips",
	"baseline.VerifyMatMul":    "rule 1: the reference multiplication (workload.Matrix) the compute benchmark's correctness test checks",
	"net.VerifyInOrder":        "rule 1: the in-order, exactly-once oracle the reliable-transport tests check Reliable.Delivered against",
	"net.Reliable.Delivered":   "rule 1: what the reliable transport delivered, the input to the VerifyInOrder oracle",
	// Rule 2: planned callers named by a ROADMAP item.
	"fleet.NewDigest":    "rule 2: ROADMAP item 1 moves perfbench's sim_digest onto fleet.Digest; TestDeterminism checks it today",
	"fleet.Digest.Phase": "rule 2: ROADMAP item 1 (see fleet.NewDigest)",
	"fleet.Digest.Sum":   "rule 2: ROADMAP item 1 (see fleet.NewDigest)",
	// Rule 3: paper application models that tests drive end to end.
	"apps.NewBoardTest":                "rule 3: the board-test app, run across vendors by integration_test (and through it the net frame codec FuzzParseFrame covers)",
	"apps.BoardTest.RunAll":            "rule 3: the board-test app (see apps.NewBoardTest)",
	"apps.AllPassed":                   "rule 3: the board-test app (see apps.NewBoardTest)",
	"apps.HostNetwork.InstallFlow":     "rule 3: the host-network offload's exact-match flow table, driven end to end by hostnet_test",
	"apps.HostNetwork.InstallWildcard": "rule 3: the host-network offload's wildcard rule table, driven end to end by classifier_test",
	// Rule 4: kept by the previous sweep.
	"platform.Families":        "rule 4: the catalog's vendor families, validated by platform_test",
	"metrics.Sampler.MeanRate": "rule 4: the windowed mean rate the secgateway and metrics tests check",
	// Rule 5: accessors external-package tests read to check behaviour a program runs.
	"apps.HostNetwork.Stats": "rule 5: integration_test counts the host-network offload's to-host packets and checksums",
	"rbb.HostRBB.QueueStats": "rule 5: integration_test sums per-queue DMA completions across vendors",
	"rbb.HostRBB.Owner":      "rule 5: tenancy_test checks which tenant owns each host queue",
	"mem.Device.Config":      "rule 5: rbb's memory_test checks the memory RBB's device kind and interleaving",
	"metrics.Figure.Find":    "rule 5: bench_test reads the paper figures' series by label",
	"obs.Recorder.Events":    "rule 5: fleet's obs and fleet tests check what traced drills record",
}

// TestReachable type-checks every non-test package of the module, plus
// perfbench, marks what the programs reach and fails on each
// declaration they do not. Run it alone with
//
//	go test -run TestReachable .
func TestReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset := token.NewFileSet()
	pkgs, err := loadModule(fset)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	res := reach(fset, pkgs, "harmonia", reachAllow)
	for _, d := range res.unreached {
		file, err := filepath.Rel(wd, d.pos.Filename)
		if err != nil {
			file = d.pos.Filename
		}
		t.Errorf("%s (%s:%d): no program reaches it; delete it, or allowlist it with a reason", d.name, file, d.pos.Line)
	}
	for _, s := range res.stale {
		t.Errorf("allowlist: %s", s)
	}
}

// reachPkg is one package the check type-checks.
type reachPkg struct {
	path  string
	main  bool // a program: every declaration is a root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadModule lists, parses and type-checks the module's packages and
// perfbench's, from source; the standard library comes from export data.
func loadModule(fset *token.FileSet) ([]*reachPkg, error) {
	const format = "{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles \",\"}}"
	var pkgs []*reachPkg
	for _, args := range [][]string{
		{"list", "-f", format, "./..."},
		{"-C", "perfbench", "list", "-f", format, "."},
	} {
		out, err := exec.Command("go", args...).Output()
		if err != nil {
			return nil, fmt.Errorf("go %s: %v", strings.Join(args, " "), err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "|")
			p := &reachPkg{path: f[0], main: f[1] == "main"}
			for _, name := range strings.Split(f[3], ",") {
				file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, file)
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, typeCheck(fset, pkgs)
}

// typeCheck checks pkgs in import order, resolving imports among them
// to each other and every other import to the standard library.
func typeCheck(fset *token.FileSet, pkgs []*reachPkg) error {
	imp := &reachImporter{std: importer.ForCompiler(fset, "gc", nil), fset: fset, byPath: map[string]*reachPkg{}}
	for _, p := range pkgs {
		imp.byPath[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := imp.Import(p.path); err != nil {
			return err
		}
	}
	return nil
}

type reachImporter struct {
	std    types.Importer
	fset   *token.FileSet
	byPath map[string]*reachPkg
}

func (imp *reachImporter) Import(path string) (*types.Package, error) {
	p, ok := imp.byPath[path]
	if !ok {
		return imp.std.Import(path)
	}
	if p.pkg == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, imp.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
	}
	return p.pkg, nil
}

// reachDecl is one top-level declaration: a function, method, type or
// const. Package-level vars and struct fields are not checked (JSON and
// reflection read fields), but what a var's initializer uses is a root.
type reachDecl struct {
	name string // pkg.Name or pkg.Type.Method
	pos  token.Position
}

type reachResult struct {
	unreached []reachDecl
	stale     []string
}

// reachGraph links each declaration to the declarations it uses.
type reachGraph struct {
	decls  map[types.Object]reachDecl
	edges  map[types.Object][]types.Object
	block  map[types.Object][]types.Object // a const's declaration block
	roots  []types.Object
	ifaces []*types.Interface // every interface with methods the code uses
	byName map[string]types.Object
}

// reach marks everything reachable from the programs (main packages),
// the exported API of the package at apiPath and the allowlist, and
// returns the declarations left unmarked and the allowlist entries
// that name nothing or that the programs reach anyway.
func reach(fset *token.FileSet, pkgs []*reachPkg, apiPath string, allow map[string]string) reachResult {
	g := &reachGraph{
		decls:  map[types.Object]reachDecl{},
		edges:  map[types.Object][]types.Object{},
		block:  map[types.Object][]types.Object{},
		byName: map[string]types.Object{},
	}
	repo := map[*types.Package]bool{}
	for _, p := range pkgs {
		repo[p.pkg] = true
	}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			g.ifaces = append(g.ifaces, it)
		}
	}
	for _, p := range pkgs {
		uses := func(n ast.Node) []types.Object {
			var objs []types.Object
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := reachTarget(p.info.Uses[id]); o != nil && repo[o.Pkg()] {
						objs = append(objs, o)
					}
				}
				return true
			})
			return objs
		}
		declare := func(id *ast.Ident, n ast.Node) types.Object {
			o := p.info.Defs[id]
			if o == nil || id.Name == "_" {
				return nil
			}
			name := path.Base(p.path) + "." + id.Name
			if f, ok := o.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil {
					name = path.Base(p.path) + "." + reachRecv(recv).Obj().Name() + "." + id.Name
				}
			}
			g.decls[o] = reachDecl{name: name, pos: fset.Position(id.Pos())}
			g.edges[o] = uses(n)
			if p.main {
				g.roots = append(g.roots, o)
			} else {
				g.byName[name] = o
			}
			return o
		}
		for _, file := range p.files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						g.roots = append(g.roots, uses(d)...)
						continue
					}
					declare(d.Name, d)
				case *ast.GenDecl:
					var block []types.Object
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s)
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								g.roots = append(g.roots, uses(s)...)
								continue
							}
							for _, id := range s.Names {
								if o := declare(id, s); o != nil {
									block = append(block, o)
								}
							}
						}
					}
					for _, o := range block {
						g.block[o] = block
					}
				}
			}
			// Interfaces the code uses: every interface-typed expression
			// (type assertions, conversions, type parameters) and every
			// interface parameter of a called function, so a concrete
			// type's methods that satisfy heap.Interface or sort.Interface
			// stay reached.
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sig, ok := p.info.Types[call.Fun].Type.(*types.Signature); ok {
						for i := 0; i < sig.Params().Len(); i++ {
							t := sig.Params().At(i).Type()
							if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
								t = s.Elem()
							}
							addIface(t)
						}
					}
				}
				return true
			})
		}
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		if p.path == apiPath {
			g.walkAPI(p.pkg, repo)
		}
	}

	var res reachResult
	base := g.mark(nil)
	var allowed []types.Object
	for name := range allow {
		o, ok := g.byName[name]
		switch {
		case !ok:
			res.stale = append(res.stale, name+" names no declaration; remove the entry")
		case base[o]:
			res.stale = append(res.stale, name+" is reached without the allowlist; remove the entry")
		default:
			allowed = append(allowed, o)
		}
	}
	sort.Strings(res.stale)
	marked := g.mark(allowed)
	for o, d := range g.decls {
		if !marked[o] {
			res.unreached = append(res.unreached, d)
		}
	}
	sort.Slice(res.unreached, func(i, j int) bool {
		a, b := res.unreached[i].pos, res.unreached[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return res
}

// reachTarget maps a used object to the declaration that holds it.
func reachTarget(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			if n := reachRecv(recv); n != nil {
				return n.Obj() // an interface method belongs to its interface
			}
			return nil
		}
		return o
	case *types.TypeName, *types.Const:
		return o
	}
	return nil
}

// reachRecv returns the named type of a method's receiver.
func reachRecv(recv *types.Var) *types.Named {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// walkAPI roots the package's exported API: each exported object and,
// recursively through its type, every exported field, method and
// signature a caller of the package can reach.
func (g *reachGraph) walkAPI(pkg *types.Package, repo map[*types.Package]bool) {
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			o := t.Origin()
			if !repo[o.Obj().Pkg()] {
				return
			}
			g.roots = append(g.roots, o.Obj())
			ms := types.NewMethodSet(types.NewPointer(o))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); m.Exported() {
					g.roots = append(g.roots, reachTarget(m))
					walk(m.Type())
				}
			}
			walk(o.Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if o := pkg.Scope().Lookup(name); o.Exported() {
			g.roots = append(g.roots, o)
			walk(o.Type())
		}
	}
}

// mark returns every declaration reachable from the roots and extra.
func (g *reachGraph) mark(extra []types.Object) map[types.Object]bool {
	marked := map[types.Object]bool{}
	var work []types.Object
	push := func(o types.Object) {
		if _, ok := g.decls[o]; ok && !marked[o] {
			marked[o] = true
			work = append(work, o)
		}
	}
	for _, o := range g.roots {
		push(o)
	}
	for _, o := range extra {
		push(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range g.edges[o] {
			push(u)
		}
		for _, c := range g.block[o] {
			push(c)
		}
		switch o := o.(type) {
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil {
				push(reachRecv(recv).Obj())
			}
		case *types.TypeName:
			for _, m := range g.implied(o) {
				push(m)
			}
		}
	}
	return marked
}

// implied returns the methods of a reached type that the program can
// call without naming them: those satisfying an interface the code
// uses, and those fmt and encoding/json find by reflection.
func (g *reachGraph) implied(tn *types.TypeName) []types.Object {
	n, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || types.IsInterface(n) {
		return nil
	}
	ptr := types.NewPointer(n)
	ms := types.NewMethodSet(ptr)
	var out []types.Object
	add := func(pkg *types.Package, name string) {
		if sel := ms.Lookup(pkg, name); sel != nil {
			out = append(out, sel.Obj().(*types.Func).Origin())
		}
	}
	for _, name := range []string{"String", "Error", "MarshalJSON"} {
		add(nil, name)
	}
	for _, it := range g.ifaces {
		if types.Implements(ptr, it) {
			for i := 0; i < it.NumMethods(); i++ {
				add(it.Method(i).Pkg(), it.Method(i).Name())
			}
		}
	}
	return out
}

// TestReachChecker runs the check on a small module parsed from source:
// a library, a program and an API package that re-exports a library
// type.
func TestReachChecker(t *testing.T) {
	srcs := []struct{ path, src string }{
		{"ex/lib", `package lib

type Table struct{}

// CSV is called only through the program's csver type assertion.
func (Table) CSV() string { return "" }

func Get() any { return Table{} }

func Dead()   { helper() }
func helper() {}

func Oracle() { oracleHelper() }
func oracleHelper() {}

type Kind int

const (
	KindA Kind = iota
	KindB
)

const Lone = 3

type Exposed struct{}

func (*Exposed) Hello() {}
func (*Exposed) hidden() {}
`},
		{"ex/api", `package api

import "ex/lib"

type T = lib.Exposed
`},
		{"ex/cmd", `package main

import "ex/lib"

type csver interface{ CSV() string }

func main() {
	if c, ok := lib.Get().(csver); ok {
		_ = c.CSV()
	}
	_ = lib.KindA
}
`},
	}
	fset := token.NewFileSet()
	var pkgs []*reachPkg
	for _, s := range srcs {
		f, err := parser.ParseFile(fset, s.path+"/x.go", s.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, &reachPkg{path: s.path, main: f.Name.Name == "main", files: []*ast.File{f}})
	}
	if err := typeCheck(fset, pkgs); err != nil {
		t.Fatal(err)
	}
	res := reach(fset, pkgs, "ex/api", map[string]string{
		"lib.Oracle": "kept",
		"lib.Nope":   "names nothing",
		"lib.Get":    "reached anyway",
	})
	var got []string
	for _, d := range res.unreached {
		got = append(got, fmt.Sprintf("%s@%s:%d", d.name, d.pos.Filename, d.pos.Line))
	}
	want := []string{
		"lib.Dead@ex/lib/x.go:10",           // dead
		"lib.helper@ex/lib/x.go:11",         // reached only from a dead function
		"lib.Lone@ex/lib/x.go:23",           // a const alone in its block
		"lib.Exposed.hidden@ex/lib/x.go:28", // unexported, so not API
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unreached:\n got  %v\n want %v", got, want)
	}
	// Table.CSV (interface assertion), KindB (block sibling of a used
	// const), Exposed.Hello (root API) and oracleHelper (under an
	// allowlisted root) are kept: none is in want above.
	wantStale := []string{
		"lib.Get is reached without the allowlist; remove the entry",
		"lib.Nope names no declaration; remove the entry",
	}
	if strings.Join(res.stale, "|") != strings.Join(wantStale, "|") {
		t.Errorf("stale:\n got  %q\n want %q", res.stale, wantStale)
	}
}
