package agora

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	citedTest   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	citedOption = regexp.MustCompile(`\bOptions\.([A-Z]\w*)(\*?)|\b(Disable[A-Z]\w*)(\*?)`)
	citedMake   = regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
	citedQual   = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	inlineCode  = regexp.MustCompile("`[^`]*`")
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	makeTarget  = regexp.MustCompile(`(?m)^([A-Za-z][\w-]*):`)
	citedPath   = regexp.MustCompile(`(?:^|[^A-Za-z_./])(/(?:metrics|debug/[\w-]+)[\w/-]*)`)
	handledPath = regexp.MustCompile(`\bhttp\.Handle(?:Func)?\("([^"]+)"`)
)

// TestDocsCiteExistingNames keeps the root documents and the benchmark's
// README in step with the code: every test, benchmark or fuzz target they
// name must be a prefix of a function in some _test.go file (the way -run
// and -bench match, so BenchmarkTable4_* names a family), every Options.X
// or DisableX must be a field of Options (a trailing * makes it a
// prefix), every name in the first column of ARCHITECTURE.md's options
// table must be a field of Options, every `make <target>` in code must be
// a Makefile target, every `pkg.Name` in inline code whose pkg is a
// directory of internal/ must name an exported type, func, method, field,
// const or var declared in that package, and every /metrics or /debug/…
// path must be one cmd/agora serves.
func TestDocsCiteExistingNames(t *testing.T) {
	decls := internalDecls(t)
	// The qualified-name check must catch a deleted name.
	if unknownQualified("`mat.PlanBlockMul(true, k)` and `mat.PlanMatVec`", decls) != "mat.PlanMatVec" {
		t.Fatal("qualified-name check does not flag mat.PlanMatVec")
	}
	served := servedPaths(t)
	// The path check must catch a deleted endpoint.
	if unservedPath("curl -s localhost:8791/metrics; curl -s localhost:8791/debug/rates", served) != "/debug/rates" {
		t.Fatalf("path check does not flag /debug/rates (served %v)", served)
	}
	// The options-table check must read a bare row name, and only under
	// its heading.
	table := optionTable + "\n|---|---|\n| `RealTime` | x |\n\n## Next\n| `Other` |\n"
	if got := optionRows(table); !slices.Equal(got, []optionRow{{3, "RealTime"}}) {
		t.Fatalf("options-table rows = %v, want RealTime on line 3", got)
	}
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		fields = append(fields, f.Name)
	}
	hasPrefix := func(names []string, p string) bool {
		return slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, p) })
	}
	isField := func(name, star string) bool {
		if star == "*" {
			return hasPrefix(fields, name)
		}
		return slices.Contains(fields, name)
	}

	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := optionRows(string(arch))
	if len(rows) == 0 {
		t.Errorf("ARCHITECTURE.md has no %q table", optionTable)
	}
	for _, r := range rows {
		if !slices.Contains(fields, r.name) {
			t.Errorf("ARCHITECTURE.md:%d lists option %s, which is not a field of Options", r.line, r.name)
		}
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md", "benchmark/README.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		fenced := false
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			for _, name := range citedTest.FindAllString(line, -1) {
				if !hasPrefix(funcs, name) {
					t.Errorf("%s:%d cites %s, which no _test.go function starts with", doc, n, name)
				}
			}
			for _, m := range citedOption.FindAllStringSubmatch(line, -1) {
				name, star := m[1]+m[3], m[2]+m[4]
				if !isField(name, star) {
					t.Errorf("%s:%d cites %s%s, which is not a field of Options", doc, n, name, star)
				}
			}
			code := line
			if !fenced {
				code = strings.Join(inlineCode.FindAllString(line, -1), " ")
				if bad := unknownQualified(code, decls); bad != "" {
					t.Errorf("%s:%d cites %s, which internal/%s does not declare", doc, n, bad,
						strings.Split(bad, ".")[0])
				}
			}
			for _, m := range citedMake.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d cites make %s, which is not a Makefile target", doc, n, m[1])
				}
			}
			if bad := unservedPath(line, served); bad != "" {
				t.Errorf("%s:%d cites %s, which cmd/agora does not serve", doc, n, bad)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// optionTable is the heading of ARCHITECTURE.md's options table.
const optionTable = "## Options → ablation map"

// optionRow is one backticked name in the first column of the options
// table, with its 1-based line number.
type optionRow struct {
	line int
	name string
}

// optionRows returns the backticked names in the first column of every
// table row between the optionTable heading and the next heading.
func optionRows(doc string) []optionRow {
	var rows []optionRow
	in := false
	for n, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "#"):
			in = line == optionTable
		case in && strings.HasPrefix(line, "|"):
			first, _, _ := strings.Cut(line[1:], "|")
			for _, c := range inlineCode.FindAllString(first, -1) {
				rows = append(rows, optionRow{n + 1, strings.Trim(c, "`")})
			}
		}
	}
	return rows
}

// unknownQualified returns the first pkg.Name in code whose pkg is an
// internal package that declares no exported Name, or "" if there is
// none. Other qualifiers (standard library, local variables) pass.
func unknownQualified(code string, decls map[string]map[string]bool) string {
	for _, m := range citedQual.FindAllStringSubmatch(code, -1) {
		if names, ok := decls[m[1]]; ok && !names[m[2]] {
			return m[0]
		}
	}
	return ""
}

// unservedPath returns the first /metrics or /debug/… path in line that
// is neither a served path nor below one, or "" if there is none.
func unservedPath(line string, served []string) string {
	for _, m := range citedPath.FindAllStringSubmatch(line, -1) {
		if !slices.ContainsFunc(served, func(s string) bool {
			return m[1] == s || strings.HasPrefix(m[1], s+"/")
		}) {
			return m[1]
		}
	}
	return ""
}

// servedPaths returns the HTTP paths cmd/agora serves: the string
// literals its main.go passes to http.Handle and http.HandleFunc, plus
// /debug/vars and /debug/pprof, which its expvar and net/http/pprof
// imports register.
func servedPaths(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", "agora", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	served := []string{"/debug/vars", "/debug/pprof"}
	for _, m := range handledPath.FindAllStringSubmatch(string(src), -1) {
		served = append(served, m[1])
	}
	if !slices.Contains(served, "/metrics") {
		t.Fatalf("cmd/agora/main.go registers no /metrics handler (served %v)", served)
	}
	return served
}

// internalDecls parses every non-test Go file under internal/ and maps
// each package directory to the exported names it declares: types, funcs,
// methods, struct fields, interface methods, consts and vars.
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		names := map[string]bool{}
		decls[d.Name()] = names
		files, err := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			add := func(ids ...*ast.Ident) {
				for _, id := range ids {
					if id.IsExported() {
						names[id.Name] = true
					}
				}
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok {
					add(fn.Name)
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						add(n.Name)
					case *ast.ValueSpec:
						add(n.Names...)
					case *ast.Field:
						add(n.Names...)
					}
					return true
				})
			}
		}
	}
	return decls
}
