package zeiot_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// unusedAllowed lists the package-level declarations and struct fields that
// stay although no non-test file of the module uses them, each with its
// reason. A key is <package>.<Name>, <package>.<Type>.<Method> or
// <package>.<Type>.<field>.
var unusedAllowed = map[string]string{
	"microdeep.Model.LocalUpdate": "zbench, a module of its own, calls it",
	"microdeep.Model.SetGossip":   "EXPERIMENTS.md documents gossip mode through it",
	"cnn.Network.Backward":        "the serial reference step of microdeep's parallel tests",
	"cnn.CrossEntropy":            "the serial reference step of microdeep's parallel tests",
	"obs.Snapshot.Deterministic":  "the metric-golden tests compare its export",
}

// stdCalled names methods that standard-library code calls through its own
// interfaces (fmt.Stringer, error, http.Handler, json.Marshaler), so such a
// method is reached though no zeiot code calls it. No non-test code
// implements sort.Interface or heap.Interface, so their methods need a
// caller like any other.
var stdCalled = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true,
}

// TestSourceCheck type-checks the module's non-test Go files and holds three
// rules over the tree:
//
//   - unused: every package-level function, method and variable is used by
//     a non-test file of the module (cmd/ and examples/ count), or is on
//     unusedAllowed. A use from inside the declaration itself does not
//     count. A method is also reached when non-test code calls a method of
//     its name through an interface, or when stdCalled holds its name.
//     Every unexported field of a package-level struct type is read by a
//     non-test file (see checkUnreadFields).
//   - goroutines: the root package starts goroutines only in harness.fanOut,
//     so every experiment's concurrency goes through the one deterministic
//     fan-out.
//   - docs: every backticked pkg.Ident, Type.Member, path/file.go and
//     Test…/Fuzz… name in README.md, DESIGN.md and EXPERIMENTS.md resolves
//     in the tree, and every -flag README shows for zeiotbench or zeiotd is
//     declared by that command.
func TestSourceCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	m := loadModule(t)
	t.Run("unused", func(t *testing.T) { checkUnused(t, m) })
	t.Run("goroutines", func(t *testing.T) { checkGoStatements(t, m) })
	t.Run("docs", func(t *testing.T) { checkDocs(t, m) })
}

// sourcePkg is one package of the module: its non-test files, type-checked,
// and the top-level names its test files declare.
type sourcePkg struct {
	path      string
	files     []*ast.File
	testNames map[string]bool
	types     *types.Package
	info      *types.Info
}

// modulePath is the module's path in go.mod.
const modulePath = "zeiot"

type sourceModule struct {
	fset   *token.FileSet
	pkgs   []*sourcePkg
	byPath map[string]*sourcePkg
	std    types.Importer
	// goFiles holds the slash path of every .go file in the tree, other
	// modules' (zbench) and tests included.
	goFiles []string
	// testFuncs holds every Test, Fuzz, Benchmark and Example function
	// declared in the tree.
	testFuncs map[string]bool
}

func loadModule(t *testing.T) *sourceModule {
	t.Helper()
	m := &sourceModule{
		fset:      token.NewFileSet(),
		byPath:    map[string]*sourcePkg{},
		testFuncs: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		m.goFiles = append(m.goFiles, filepath.ToSlash(path))
		return m.parseFile(path, inModule(path))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.pkgs {
		if _, err := m.Import(p.path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// inModule reports whether the file at path belongs to this module rather
// than to a nested one (a directory with its own go.mod, such as zbench).
func inModule(path string) bool {
	for dir := filepath.Dir(path); dir != "."; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return false
		}
	}
	return true
}

func (m *sourceModule) parseFile(path string, own bool) error {
	dir, name := filepath.Split(path)
	test := strings.HasSuffix(name, "_test.go")
	if own && !test {
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
	}
	f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && test && testFunc.MatchString(fd.Name.Name) {
			m.testFuncs[fd.Name.Name] = true
		}
	}
	if !own {
		return nil
	}
	importPath := modulePath
	if d := filepath.ToSlash(filepath.Clean(dir)); d != "." {
		importPath += "/" + d
	}
	p := m.byPath[importPath]
	if p == nil {
		p = &sourcePkg{path: importPath, testNames: map[string]bool{}}
		m.byPath[importPath] = p
		m.pkgs = append(m.pkgs, p)
	}
	if !test {
		p.files = append(p.files, f)
		return nil
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.testNames[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					p.testNames[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.testNames[n.Name] = true
					}
				}
			}
		}
	}
	return nil
}

// Import type-checks a package of the module on first use and hands every
// other path to the standard-library source importer.
func (m *sourceModule) Import(path string) (*types.Package, error) {
	p := m.byPath[path]
	if p == nil {
		return m.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
	}
	return p.types, nil
}

// declKey names a package-level object the way unusedAllowed does.
func declKey(obj types.Object) string {
	key := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			key += typ.(*types.Named).Obj().Name() + "."
		}
	}
	return key + obj.Name()
}

// topLevel is one package-level declaration: the objects it defines and the
// node whose own uses of them do not count.
type topLevel struct {
	objs []types.Object
	node ast.Node
}

func (p *sourcePkg) topLevels() []topLevel {
	var out []topLevel
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				out = append(out, topLevel{[]types.Object{p.info.Defs[d.Name]}, d})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					tl := topLevel{node: s}
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							tl.objs = append(tl.objs, p.info.Defs[n])
						}
					case *ast.TypeSpec:
						tl.objs = append(tl.objs, p.info.Defs[s.Name])
					}
					out = append(out, tl)
				}
			}
		}
	}
	return out
}

func checkUnused(t *testing.T, m *sourceModule) {
	used := map[types.Object]bool{}
	ifaceCalled := map[string]bool{}
	for _, p := range m.pkgs {
		for _, tl := range p.topLevels() {
			ast.Inspect(tl.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceCalled[fn.Name()] = true
					}
				}
				for _, self := range tl.objs {
					if obj == self {
						return true
					}
				}
				if obj != nil {
					used[obj] = true
				}
				return true
			})
		}
	}
	seen := checkUnreadFields(t, m)
	for _, p := range m.pkgs {
		for _, tl := range p.topLevels() {
			for _, obj := range tl.objs {
				if obj == nil || obj.Name() == "_" || used[obj] {
					continue
				}
				var method bool
				switch obj := obj.(type) {
				case *types.Func:
					if obj.Name() == "init" || (obj.Name() == "main" && p.types.Name() == "main") {
						continue
					}
					method = obj.Type().(*types.Signature).Recv() != nil
				case *types.Var:
				default:
					continue
				}
				if method && (ifaceCalled[obj.Name()] || stdCalled[obj.Name()]) {
					continue
				}
				key := declKey(obj)
				seen[key] = true
				if _, ok := unusedAllowed[key]; ok {
					continue
				}
				t.Errorf("%s: %s is used by no non-test file of the module; delete it, move it into a _test.go file, or add it to unusedAllowed with a reason",
					m.fset.Position(tl.node.Pos()), key)
			}
		}
	}
	for key := range unusedAllowed {
		if !seen[key] {
			t.Errorf("unusedAllowed holds %s, which non-test code now uses or which is gone; drop the entry", key)
		}
	}
}

// checkUnreadFields reports every unexported field of a package-level
// struct type that no non-test file reads, unless unusedAllowed holds it,
// and returns the keys of the unread fields. Embedded fields are skipped:
// their promoted members are what code reads. A selector x.f that is the
// whole left-hand side of a plain = assignment writes f, and so does a
// composite-literal key; every other selector reads it, x.f += v and x.f++
// included. The fields of a struct used as a map key are read by the map's
// hashing. Exported fields stay out of the rule: encoding/json and
// encoding/gob read them by reflection, as zeiotd's wire types and the
// checkpoint blobs rely on.
func checkUnreadFields(t *testing.T, m *sourceModule) map[string]bool {
	read := map[types.Object]bool{}
	readAll := func(typ types.Type) {
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				read[st.Field(i)] = true
			}
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			written := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, lhs := range n.Lhs {
							if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
								written[sel] = true
							}
						}
					}
				case *ast.SelectorExpr:
					if v, ok := p.info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !written[n] {
						read[v.Origin()] = true
					}
				case *ast.MapType:
					readAll(p.info.TypeOf(n.Key))
				}
				return true
			})
		}
	}
	unread := map[string]bool{}
	for _, p := range m.pkgs {
		for _, tl := range p.topLevels() {
			spec, ok := tl.node.(*ast.TypeSpec)
			if !ok {
				continue
			}
			ast.Inspect(spec.Type, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						obj := p.info.Defs[id]
						if obj == nil || obj.Exported() || obj.Name() == "_" || read[obj] {
							continue
						}
						key := p.types.Name() + "." + spec.Name.Name + "." + id.Name
						unread[key] = true
						if _, ok := unusedAllowed[key]; ok {
							continue
						}
						t.Errorf("%s: field %s is read by no non-test file of the module; delete it, or add it to unusedAllowed with a reason",
							m.fset.Position(id.Pos()), key)
					}
				}
				return true
			})
		}
	}
	return unread
}

func checkGoStatements(t *testing.T, m *sourceModule) {
	p := m.byPath[modulePath]
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "fanOut" && fd.Recv != nil {
				if obj := p.info.Defs[fd.Name]; obj != nil && declKey(obj) == "zeiot.harness.fanOut" {
					continue
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement outside harness.fanOut; run concurrent work through the fan-out", m.fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}

var (
	backtickSpan = regexp.MustCompile("`([^`\n]+)`")
	dottedName   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(\))?$`)
	goFileName   = regexp.MustCompile(`^[\w./-]+\.go$`)
	testName     = regexp.MustCompile(`^(Test|Fuzz)[A-Z_]\w*`)
	testFunc     = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	flagToken    = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	// fileSuffix marks a dotted span as a file name, not a Go name.
	fileSuffix = regexp.MustCompile(`\.(json|sh|md|mod|prom)$`)
)

func checkDocs(t *testing.T, m *sourceModule) {
	r := newResolver(m)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, sm := range backtickSpan.FindAllStringSubmatch(sc.Text(), -1) {
				if err := r.resolve(sm[1]); err != nil {
					t.Errorf("%s:%d: `%s`: %v", doc, line, sm[1], err)
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	flags := map[string]map[string]bool{}
	for _, cmd := range []string{"zeiotbench", "zeiotd"} {
		flags[cmd] = declaredFlags(m.byPath[modulePath+"/cmd/"+cmd])
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// A command line continues after a trailing backslash.
	for _, line := range strings.Split(strings.ReplaceAll(string(readme), "\\\n", " "), "\n") {
		// The flags after a command name are that command's.
		for _, cmd := range []string{"zeiotbench", "zeiotd"} {
			if _, rest, ok := strings.Cut(line, cmd+" "); ok {
				for _, fm := range flagToken.FindAllStringSubmatch(rest, -1) {
					if !flags[cmd][fm[1]] {
						t.Errorf("README.md: %s declares no flag -%s, in %q", cmd, fm[1], line)
					}
				}
				break
			}
		}
		// A backticked flag in prose belongs to either command.
		for _, sm := range backtickSpan.FindAllStringSubmatch(line, -1) {
			if !strings.HasPrefix(sm[1], "-") {
				continue
			}
			for _, fm := range flagToken.FindAllStringSubmatch(sm[1], -1) {
				if !flags["zeiotbench"][fm[1]] && !flags["zeiotd"][fm[1]] {
					t.Errorf("README.md: neither zeiotbench nor zeiotd declares -%s, in %q", fm[1], line)
				}
			}
		}
	}
}

// declaredFlags returns the names the command p registers through the flag
// package's String, Int, Bool, ... functions.
func declaredFlags(p *sourcePkg) map[string]bool {
	names := map[string]bool{}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				names[strings.Trim(lit.Value, `"`)] = true
			}
			return true
		})
	}
	return names
}

// resolver answers whether a backticked doc name exists in the tree.
type resolver struct {
	m *sourceModule
	// pkgs maps a package name to the module and standard-library packages
	// of that name the module reaches.
	pkgs map[string][]*types.Package
	// typeNames maps a type name to the module's package-level types of
	// that name.
	typeNames map[string][]*types.TypeName
}

func newResolver(m *sourceModule) *resolver {
	r := &resolver{m: m, pkgs: map[string][]*types.Package{}, typeNames: map[string][]*types.TypeName{}}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if m.byPath[pkg.Path()] != nil {
			for _, name := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
					r.typeNames[name] = append(r.typeNames[name], tn)
				}
			}
		}
		r.pkgs[pkg.Name()] = append(r.pkgs[pkg.Name()], pkg)
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
	}
	return r
}

func (r *resolver) resolve(span string) error {
	switch {
	case goFileName.MatchString(span):
		for _, f := range r.m.goFiles {
			if f == span || strings.HasSuffix(f, "/"+span) {
				return nil
			}
		}
		return fmt.Errorf("no such Go file in the tree")
	case testName.MatchString(span):
		name := testName.FindString(span)
		if !r.m.testFuncs[name] {
			return fmt.Errorf("no test function %s in the tree", name)
		}
		return nil
	case dottedName.MatchString(span) && !fileSuffix.MatchString(span):
		parts := strings.Split(strings.TrimSuffix(span, "()"), ".")
		for _, pkg := range r.pkgs[parts[0]] {
			if p := r.m.byPath[pkg.Path()]; p != nil && p.testNames[parts[1]] && len(parts) == 2 {
				return nil
			}
			if obj := pkg.Scope().Lookup(parts[1]); obj != nil && resolveMembers(obj, parts[2:]) {
				return nil
			}
		}
		for _, tn := range r.typeNames[parts[0]] {
			if resolveMembers(tn, parts[1:]) {
				return nil
			}
		}
		if len(r.pkgs[parts[0]]) == 0 && len(r.typeNames[parts[0]]) == 0 {
			return fmt.Errorf("%s is neither a package nor a type of the module", parts[0])
		}
		return fmt.Errorf("does not resolve")
	}
	return nil
}

// resolveMembers reports whether the chain of field and method names
// resolves from obj's type.
func resolveMembers(obj types.Object, names []string) bool {
	for _, name := range names {
		if _, ok := obj.(*types.Func); ok {
			return false
		}
		next, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		if next == nil {
			return false
		}
		obj = next
	}
	return true
}
