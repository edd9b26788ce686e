package diffusion_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// These tests check DESIGN.md §5's rules from source: the module's
// non-test files are parsed and type-checked with the standard library
// alone (the standard library itself from source), once for every rule.

const modulePath = "diffusion"

// srcPkg is one type-checked package of the module, non-test files only.
type srcPkg struct {
	path  string // import path
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type moduleSource struct {
	fset *token.FileSet
	pkgs map[string]*srcPkg // by import path
	std  types.Importer
	err  error
}

var (
	loadOnce sync.Once
	loaded   *moduleSource
)

// loadModule parses and type-checks every package of the module once.
func loadModule(t *testing.T) *moduleSource {
	t.Helper()
	loadOnce.Do(func() {
		fset := token.NewFileSet()
		// Without cgo the standard library type-checks from its pure-Go
		// files, with no C toolchain; the source importer reads
		// build.Default.
		build.Default.CgoEnabled = false
		m := &moduleSource{fset: fset, pkgs: map[string]*srcPkg{}, std: importer.ForCompiler(fset, "source", nil)}
		m.err = filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			bp, err := build.Default.ImportDir(dir, 0)
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			} else if err != nil {
				return err
			}
			p := &srcPkg{path: modulePath}
			if dir != "." {
				p.path += "/" + filepath.ToSlash(dir)
			}
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
				if err != nil {
					return err
				}
				p.files = append(p.files, f)
			}
			m.pkgs[p.path] = p
			return nil
		})
		for _, path := range sortedKeys(m.pkgs) {
			if m.err == nil {
				_, m.err = m.Import(path)
			}
		}
		loaded = m
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded
}

// Import type-checks a module package on first use and hands every other
// path to the standard library's source importer.
func (m *moduleSource) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// internalName names an object of a package under internal/ as the list
// and the failures print it: "sim.Engine.Pending", "core.NewNode". It
// returns "" for any other object.
func internalName(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), modulePath+"/internal/")
	if !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return rel + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	return rel + "." + obj.Name()
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// exportedInternal lists every exported package-level name and every
// exported method of a named type under internal/, keyed by internalName.
func (m *moduleSource) exportedInternal() map[string]types.Object {
	out := map[string]types.Object{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, modulePath+"/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				out[internalName(obj)] = obj
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				if fn := n.Method(i); fn.Exported() {
					out[internalName(fn)] = fn
				}
			}
		}
	}
	return out
}

// reached returns every object that non-test code reaches. The code of
// every package outside internal/ (the binaries, the examples and the
// public root package) reaches what it uses, and so do internal/'s
// package initialisers: init functions and the values of package
// variables. A declaration that is reached reaches what it uses in turn,
// so code that only test-only code calls is test-only too; a function
// calling itself, or a method naming its own receiver type, reaches
// nothing more. A type that is reached also reaches each method of its
// method set that an interface, of the module or of the standard
// library, declares and the type satisfies.
func (m *moduleSource) reached() map[types.Object]bool {
	uses := map[types.Object][]types.Object{}
	var todo []types.Object
	for _, p := range m.pkgs {
		internal := strings.HasPrefix(p.path, modulePath+"/internal/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, d := range declarations(p.info, decl) {
					used := usedBy(p.info, d)
					for _, obj := range d.objs {
						uses[obj] = append(uses[obj], used...)
					}
					if !internal || d.runs {
						todo = append(todo, used...)
					}
				}
			}
		}
	}
	ifaces := m.interfaces()
	for _, p := range m.pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) || n.TypeParams().Len() > 0 {
				continue
			}
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				ms := types.NewMethodSet(t)
				for _, iface := range ifaces {
					if hasNames(ms, iface) && types.Implements(t, iface) {
						for i := 0; i < iface.NumMethods(); i++ {
							if sel := ms.Lookup(iface.Method(i).Pkg(), iface.Method(i).Name()); sel != nil {
								uses[tn] = append(uses[tn], origin(sel.Obj()))
							}
						}
					}
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	for len(todo) > 0 {
		obj := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if !reached[obj] {
			reached[obj] = true
			todo = append(todo, uses[obj]...)
		}
	}
	return reached
}

// declaration is one top-level declaration, or one spec of a grouped one:
// the objects it declares, and whether it runs at package initialisation.
type declaration struct {
	node ast.Node
	objs []types.Object
	self map[types.Object]bool // objs, and a method's receiver type
	runs bool
}

func declarations(info *types.Info, decl ast.Decl) []declaration {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn := info.Defs[d.Name]
		self := map[types.Object]bool{fn: true}
		if recv := recvBase(d); recv != nil {
			self[info.Uses[recv]] = true
		}
		init := d.Recv == nil && d.Name.Name == "init"
		return []declaration{{node: d, objs: []types.Object{fn}, self: self, runs: init}}
	case *ast.GenDecl:
		var out []declaration
		for _, spec := range d.Specs {
			var ids []*ast.Ident
			switch s := spec.(type) {
			case *ast.TypeSpec:
				ids = []*ast.Ident{s.Name}
			case *ast.ValueSpec:
				ids = s.Names
			default:
				continue
			}
			decl := declaration{node: spec, self: map[types.Object]bool{}, runs: d.Tok == token.VAR}
			for _, id := range ids {
				if obj := info.Defs[id]; obj != nil {
					decl.objs = append(decl.objs, obj)
					decl.self[obj] = true
				}
			}
			out = append(out, decl)
		}
		return out
	}
	return nil
}

// usedBy lists the objects d's code uses, other than d's own.
func usedBy(info *types.Info, d declaration) []types.Object {
	var out []types.Object
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && !d.self[origin(obj)] {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

// interfaces returns every interface with methods that the module's code
// writes, and every named one of the packages it imports, standard
// library included.
func (m *moduleSource) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seen[it] && it.IsMethodSet() && it.NumMethods() > 0 {
			seen[it] = true
			out = append(out, it)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, path := range sortedKeys(m.pkgs) {
		p := m.pkgs[path]
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	return out
}

// hasNames is a cheap filter before types.Implements: every method name
// of iface is in ms.
func hasNames(ms *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if ms.Lookup(iface.Method(i).Pkg(), iface.Method(i).Name()) == nil {
			return false
		}
	}
	return true
}

// testOnlyList reads testdata/testonly.txt: one name a line, then its
// reason. A name without a dot names a whole package under internal/.
func testOnlyList(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("testdata/testonly.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	list := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("testonly.txt: %s has no reason", name)
		}
		if list[name] {
			t.Errorf("testonly.txt: %s listed twice", name)
		}
		list[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return list
}

// TestTestOnlyCode fails on an exported name under internal/ that no
// non-test code reaches, unless testdata/testonly.txt lists it with a
// reason; and on a listed name that non-test code reaches or that no
// longer exists, so the list can only shrink. Such a name either gains a
// caller that a binary, example or experiment runs, moves into its
// package's _test.go files, or goes.
func TestTestOnlyCode(t *testing.T) {
	m := loadModule(t)
	list := testOnlyList(t)
	used := m.reached()

	// A listed package is exempt whole, as long as only tests import it.
	for _, name := range sortedKeys(list) {
		if strings.Contains(name, ".") {
			continue
		}
		path := modulePath + "/internal/" + name
		if _, ok := m.pkgs[path]; !ok {
			t.Errorf("testonly.txt lists package %s, which does not exist", name)
			continue
		}
		for _, p := range m.pkgs {
			if p.path == path {
				continue
			}
			for _, imp := range p.pkg.Imports() {
				if imp.Path() == path {
					t.Errorf("testonly.txt lists package %s, which %s imports", name, p.path)
				}
			}
		}
	}
	names := m.exportedInternal()
	for _, name := range sortedKeys(names) {
		pkg, _, _ := strings.Cut(name, ".")
		switch {
		case used[names[name]] && list[name]:
			t.Errorf("testonly.txt lists %s, which non-test code reaches: delete its line", name)
		case !used[names[name]] && !list[name] && !list[pkg]:
			t.Errorf("%s is reached only by tests: give it a caller, move it into a _test.go file, delete it, or list it in testdata/testonly.txt with the reason", name)
		}
	}
	for _, name := range sortedKeys(list) {
		if _, ok := names[name]; strings.Contains(name, ".") && !ok {
			t.Errorf("testonly.txt lists %s, which does not exist: delete its line", name)
		}
	}
}

// protocolPackages run on a Clock and own no goroutine: they read no wall
// clock, take no lock, and draw randomness only from a seeded source.
var protocolPackages = []string{"attr", "core", "mac", "radio", "filters", "match", "message", "sim"}

// protocolExceptions names each place where a protocol package may break
// that rule, by package and the top-level declaration it sits in ("" for
// an import), with the reason.
var protocolExceptions = []struct{ pkg, decl, use, reason string }{
	{"sim", "NewRealClock", "time.Now", "RealClock is the live runner's wall clock"},
	{"sim", "RealClock.Now", "time.Since", "RealClock is the live runner's wall clock"},
	{"sim", "RealClock.After", "time.AfterFunc", "RealClock is the live runner's wall clock"},
	{"attr", "", "sync", "the key-name registry is one table per process, shared by every node and HTTP handler of a daemon; a name is never on the wire, only its key"},
}

// wallClock lists the time functions that read or wait on the wall clock.
var wallClock = []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick"}

// TestProtocolPackagesClockFree holds DESIGN.md §5's rule that protocol
// logic is event-driven on a Clock, single-owner and seeded: the
// protocol packages call no wall-clock function of package time, import
// no sync, and call no package-level math/rand function but the
// constructors of a seeded source.
func TestProtocolPackagesClockFree(t *testing.T) {
	m := loadModule(t)
	allowed := map[string]bool{}
	for _, e := range protocolExceptions {
		allowed[e.pkg+" "+e.decl+" "+e.use] = true
	}
	found := map[string]bool{}
	flag := func(pkg, decl, use string, pos token.Pos) {
		key := pkg + " " + decl + " " + use
		if allowed[key] {
			found[key] = true
			return
		}
		t.Errorf("%s: %s in a protocol package (%s)", m.fset.Position(pos), use, pkg)
	}
	for _, pkg := range protocolPackages {
		p := m.pkgs[modulePath+"/internal/"+pkg]
		if p == nil {
			t.Fatalf("no package internal/%s", pkg)
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); path == "sync" || path == "sync/atomic" {
					flag(pkg, "", path, imp.Pos())
				}
			}
			for _, decl := range f.Decls {
				name := declName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
						return true
					}
					switch fn.Pkg().Path() {
					case "time":
						if slices.Contains(wallClock, fn.Name()) {
							flag(pkg, name, "time."+fn.Name(), id.Pos())
						}
					case "math/rand", "math/rand/v2":
						if !strings.HasPrefix(fn.Name(), "New") {
							flag(pkg, name, fn.Pkg().Path()+"."+fn.Name(), id.Pos())
						}
					}
					return true
				})
			}
		}
	}
	for _, e := range protocolExceptions {
		if !found[e.pkg+" "+e.decl+" "+e.use] {
			t.Errorf("exception %s %s %s matches nothing: delete it", e.pkg, e.decl, e.use)
		}
	}
}

// goStatements pins where a goroutine starts under internal/: the live
// runtime's loop, the UDP reader, each mesh link's delivery loop and the
// chaos runner's wait on a member process, one go statement each.
var goStatements = map[string]int{
	"internal/rt/rt.go":          1,
	"internal/transport/udp.go":  1,
	"internal/transport/mesh.go": 1,
	"internal/chaos/chaos.go":    1,
}

// TestOneOwnerGoroutine holds DESIGN.md §5's rule that one goroutine owns a
// node's state: under internal/, go statements appear only where
// goStatements says, and the protocol packages neither start a goroutine
// nor touch a channel (no channel type, send, receive, range over a
// channel, or select).
func TestOneOwnerGoroutine(t *testing.T) {
	m := loadModule(t)
	found := map[string]int{}
	for _, path := range sortedKeys(m.pkgs) {
		pkg, ok := strings.CutPrefix(path, modulePath+"/internal/")
		if !ok {
			continue
		}
		p := m.pkgs[path]
		protocol := slices.Contains(protocolPackages, pkg)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var use string
				switch n := n.(type) {
				case *ast.GoStmt:
					found[filepath.ToSlash(m.fset.Position(n.Pos()).Filename)]++
					use = "go statement"
				case *ast.ChanType:
					use = "channel type"
				case *ast.SendStmt:
					use = "channel send"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						use = "channel receive"
					}
				case *ast.RangeStmt:
					if _, ok := p.info.TypeOf(n.X).Underlying().(*types.Chan); ok {
						use = "range over a channel"
					}
				case *ast.SelectStmt:
					use = "select"
				}
				if protocol && use != "" {
					t.Errorf("%s: %s in a protocol package (%s)", m.fset.Position(n.Pos()), use, pkg)
				}
				return true
			})
		}
	}
	for _, file := range sortedKeys(goStatements) {
		if found[file] != goStatements[file] {
			t.Errorf("%s has %d go statements, want %d", file, found[file], goStatements[file])
		}
	}
	for _, file := range sortedKeys(found) {
		if _, ok := goStatements[file]; !ok {
			t.Errorf("%s starts a goroutine (%d go statements): only the files in goStatements may", file, found[file])
		}
	}
}

// declName names a top-level function "F" or method "T.M"; other
// declarations are "".
func declName(decl ast.Decl) string {
	d, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if recv := recvBase(d); recv != nil {
		return recv.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// recvBase returns the name of a method's receiver type, written T, *T or
// T[P], or nil for a function.
func recvBase(d *ast.FuncDecl) *ast.Ident {
	if d.Recv == nil {
		return nil
	}
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	id, _ := t.(*ast.Ident)
	return id
}
