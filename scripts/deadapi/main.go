// Command deadapi is a census of the module's exported API. It
// type-checks every non-test package of the module, and of the benchmark
// module under bench/ when there is one, records every use of every
// name, and reports:
//
//   - an exported function or method in internal/ that no non-test code
//     uses: delete it;
//   - one that only its own package uses: unexport it;
//   - a package-level constant or variable in internal/ that nothing
//     uses, tests included: delete it.
//
// A method counts as used when its type satisfies, through it, a named
// interface of the loaded program or of the standard library packages
// it imports, and when the root package aliases its type (the library's
// public surface). Anything else that stays is named, with a reason, in
// scripts/deadapi/allowlist.txt; an entry that matches nothing is an
// error too, so the list cannot go stale.
//
//	go run ./scripts/deadapi
//
// Run it from the repository root. It exits 1 on a finding, 2 when the
// module does not load.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	findings, err := census(".", "scripts/deadapi/allowlist.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "deadapi: %d finding(s); delete or unexport each, or name it in scripts/deadapi/allowlist.txt with a reason\n", len(findings))
		os.Exit(1)
	}
}

// listed is what `go list` says of one package.
type listed struct {
	ImportPath, Dir, Export   string
	Standard                  bool
	GoFiles, TestGoFiles      []string
	XTestGoFiles              []string
	TestImports, XTestImports []string
	checked                   *types.Package
	funcs                     map[*types.Func]ast.Node // declared funcs and methods, by body
	fromBench, internal       bool
}

// program is the loaded module: its packages in dependency order, the
// export data of the standard library, and the uses found so far.
type program struct {
	module string
	root   string
	fset   *token.FileSet
	pkgs   []*listed
	byPath map[string]*listed
	export map[string]string
	gc     types.Importer
	uses   map[types.Object][]*listed // non-test uses, by using package
	used   map[types.Object]bool      // some use lies outside the object's own body
	tested map[string]bool            // keys of consts and vars a test uses
}

func census(root, allowlist string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	p := &program{module: mod, root: root, fset: token.NewFileSet(), byPath: map[string]*listed{}, export: map[string]string{},
		uses: map[types.Object][]*listed{}, used: map[types.Object]bool{}, tested: map[string]bool{}}
	p.gc = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		if p.export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.export[path])
	})
	if err := p.list(root, false, "./..."); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		if err := p.list(filepath.Join(root, "bench"), true, "."); err != nil {
			return nil, err
		}
	}
	var testStd []string
	for _, l := range p.pkgs {
		for _, path := range slices.Concat(l.TestImports, l.XTestImports) {
			if p.byPath[path] == nil && p.export[path] == "" {
				testStd = append(testStd, path)
			}
		}
	}
	if len(testStd) > 0 {
		if err := p.list(root, false, testStd...); err != nil {
			return nil, err
		}
	}
	for _, l := range p.pkgs {
		if err := p.check(l); err != nil {
			return nil, err
		}
	}
	for _, l := range p.pkgs {
		if !l.fromBench {
			p.checkTests(l)
		}
	}
	return p.judge(filepath.Join(root, allowlist))
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// list runs go list in dir and adds the packages it names, and their
// dependencies, in dependency order. The benchmark module is listed the
// way check.sh vets it.
func (p *program) list(dir string, bench bool, patterns ...string) error {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,TestGoFiles,XTestGoFiles,TestImports,XTestImports"}, patterns...)...)
	cmd.Dir = dir
	if bench {
		cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		l := &listed{}
		if err := dec.Decode(l); err != nil {
			return err
		}
		if l.Standard {
			p.export[l.ImportPath] = l.Export
			continue
		}
		if p.byPath[l.ImportPath] != nil {
			continue
		}
		l.fromBench = bench
		l.internal = strings.HasPrefix(l.ImportPath, p.module+"/internal/")
		p.byPath[l.ImportPath] = l
		p.pkgs = append(p.pkgs, l)
	}
	return nil
}

// importer resolves the module's packages to the ones checked here, and
// everything else through its export data. A test variant replaces its
// own package.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (p *program) importer(variant *types.Package) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if variant != nil && variant.Path() == path {
			return variant, nil
		}
		if l := p.byPath[path]; l != nil && l.checked != nil {
			return l.checked, nil
		}
		return p.gc.Import(path)
	})
}

func (p *program) parse(l *listed, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(p.fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks a package's non-test files and records their uses.
func (p *program) check(l *listed) error {
	files, err := p.parse(l, l.GoFiles)
	if err != nil {
		return err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: p.importer(nil)}
	if l.checked, err = conf.Check(l.ImportPath, p.fset, files, info); err != nil {
		return err
	}
	l.funcs = map[*types.Func]ast.Node{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.funcs[info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if p.byPath[pkgPath(obj)] == nil {
			continue
		}
		p.uses[obj] = append(p.uses[obj], l)
		if fn, ok := obj.(*types.Func); !ok || !within(id, p.byPath[pkgPath(obj)].funcs[fn]) {
			p.used[obj] = true
		}
	}
	return nil
}

// checkTests type-checks a package's tests, its own and its external
// ones, for the uses of constants and variables they make. Errors are
// not this census's to report (go vet and go test report them), and a
// test that mixes a test variant's types with the plain package's would
// raise some here that the go tool does not.
func (p *program) checkTests(l *listed) {
	var variant *types.Package
	if len(l.TestGoFiles) > 0 {
		variant = p.checkTestFiles(l, l.ImportPath, append(append([]string(nil), l.GoFiles...), l.TestGoFiles...), nil)
	}
	if len(l.XTestGoFiles) > 0 {
		p.checkTestFiles(l, l.ImportPath+"_test", l.XTestGoFiles, variant)
	}
}

func (p *program) checkTestFiles(l *listed, path string, names []string, variant *types.Package) *types.Package {
	files, err := p.parse(l, names)
	if err != nil {
		return nil
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: p.importer(variant), Error: func(error) {}}
	pkg, _ := conf.Check(path, p.fset, files, info)
	for _, obj := range info.Uses {
		switch obj.(type) {
		case *types.Const, *types.Var:
			p.tested[p.key(obj)] = true
		}
	}
	return pkg
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func pkgPath(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

func within(id *ast.Ident, n ast.Node) bool {
	return n != nil && n.Pos() <= id.Pos() && id.Pos() < n.End()
}

// key names an object the way findings and the allowlist do: the
// package path relative to the module, then the receiver type of a
// method, then the name.
func (p *program) key(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			name = receiver(recv.Type()).Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(pkgPath(obj), p.module+"/") + "." + name
}

func receiver(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// interfaces returns the named interfaces of every loaded package and
// of everything they import, with error, indexed by method name.
func (p *program) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			for i := 0; i < iface.NumMethods(); i++ {
				byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, l := range p.pkgs {
		walk(l.checked)
	}
	return byMethod
}

// implements reports whether a method is how its type satisfies one of
// the interfaces.
func implements(fn *types.Func, byMethod map[string][]*types.Interface) bool {
	t := receiver(fn.Type().(*types.Signature).Recv().Type())
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range byMethod[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// judge lists the findings the allowlist does not excuse, and an error
// for each allowlist entry that excuses nothing.
func (p *program) judge(allowlist string) ([]string, error) {
	allow, err := readAllowlist(allowlist)
	if err != nil {
		return nil, err
	}
	public := map[*types.Named]bool{}
	if root := p.byPath[p.module]; root != nil {
		for _, name := range root.checked.Scope().Names() {
			if tn, ok := root.checked.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					public[named] = true
				}
			}
		}
	}
	byMethod := p.interfaces()
	matched := map[string]bool{}
	var findings []string
	report := func(obj types.Object, why string) {
		key := p.key(obj)
		for entry := range allow {
			if key == entry || strings.HasPrefix(key, entry+".") {
				matched[entry] = true
				return
			}
		}
		pos := p.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(p.root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		findings = append(findings, fmt.Sprintf("%s: %s: %s", pos, key, why))
	}
	for _, l := range p.pkgs {
		if !l.internal {
			continue
		}
		scope := l.checked.Scope()
		for _, name := range scope.Names() {
			var objs []types.Object
			switch obj := scope.Lookup(name).(type) {
			case *types.Const, *types.Var:
				if name != "_" && len(p.uses[obj]) == 0 && !p.tested[p.key(obj)] {
					report(obj, "no use, tests included (delete)")
				}
			case *types.Func:
				objs = append(objs, obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() && obj.Exported() && !public[named] {
					for i := 0; i < named.NumMethods(); i++ {
						if fn := named.Method(i); !implements(fn, byMethod) {
							objs = append(objs, fn)
						}
					}
				}
			}
			for _, obj := range objs {
				if !obj.Exported() {
					continue
				}
				outside := false
				for _, user := range p.uses[obj] {
					outside = outside || user != l
				}
				switch {
				case !outside && !p.used[obj]:
					report(obj, "no non-test use (delete)")
				case !outside:
					report(obj, "used only in its own package (unexport)")
				}
			}
		}
	}
	sort.Strings(findings)
	var stale []string
	for entry := range allow {
		if !matched[entry] {
			stale = append(stale, entry)
		}
	}
	if len(stale) > 0 {
		sort.Strings(stale)
		return findings, fmt.Errorf("%s: entries that match no finding: %s", allowlist, strings.Join(stale, ", "))
	}
	return findings, nil
}

// readAllowlist reads lines of a name and its reason; # starts a comment
// line. A name is a key as findings print it, or a prefix of one ending
// at a dot: a package path, or a package path and a type.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%s:%d: %q gives no reason", path, n, fields[0])
		}
		allow[fields[0]] = true
	}
	return allow, sc.Err()
}
