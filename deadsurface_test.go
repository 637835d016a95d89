package uaqetp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// liveWithoutCaller lists the exported names that
// TestNoDeadExportedSurface keeps although nothing reads them (no
// non-test code at all, or, under internal/, no other package's), each
// with its reason. A function, constant or variable is named
// "dir.Name", a method "dir.Recv.Name" (dir is the package directory's
// last element; the root package is "uaqetp"); an interface method any
// type may implement is "*.Name".
var liveWithoutCaller = map[string]string{
	// Reference oracles: each is the slow or exact computation tests
	// hold the fast path to.
	"core.Predictor.PredictMonteCarlo":  "reference oracle: the Monte-Carlo prediction the analytic one is checked against",
	"core.MCPrediction.CompareAnalytic": "reference oracle: the analytic-versus-Monte-Carlo comparison",
	"core.MCPrediction.Prob":            "reference oracle: the empirical P(a <= T <= b) of the Monte-Carlo draws",
	"rng.ExecKey":                       "reference oracle: the historical execution-key derivation PlanKey must equal",
	"engine.Predicate.Matches":          "reference oracle: one value through the range compare the scan loops run",
	"costmodel.Term.Cov":                "reference oracle: the exact term covariance the cached moments are checked against",
	"trace.ReadJSONL":                   "reference oracle: reads a written stream back for round-trip tests; a fuzz target of ROADMAP item 6 (b)",
	"trace.TallyByTenant":               "reference oracle: per-tenant tallies of a trace, held to the report's counters",
	// Entries ROADMAP earmarks for a later decision.
	"stats.VarX2":          "ROADMAP item 14 (c): a Gaussian moment helper the exact covariances will read",
	"stats.CovXX2":         "ROADMAP item 14 (c): a Gaussian moment helper the exact covariances will read",
	"stats.CovProductLeft": "ROADMAP item 14 (c): a Gaussian moment helper the exact covariances will read",
	"stats.ProductVar":     "ROADMAP item 14 (c): a Gaussian moment helper the exact covariances will read",
	"exper.Lab.RunGrid":    "ROADMAP item 8's verdict: carries the Lab's tested concurrency contract",
	"sim.FleetList":        "ROADMAP item 8's verdict: the Go form of a scenario's machines list",
	// Vocabulary that tests and callers build on.
	"hardware.PC1": "the paper's two machines, which every package's tests build on",
	"hardware.PC2": "the paper's two machines, which every package's tests build on",
	"trace.Off":    "the zero value of the exported Level enum: what ParseLevel returns for \"\" and \"off\", and what a caller's own Recorder compares against",
	// Test seams: options that swap one pipeline stage for a stub.
	"uaqetp.WithPlanner":   "test seam: swaps the planner stage",
	"uaqetp.WithEstimator": "test seam: swaps the estimator stage",
	"uaqetp.WithPredictor": "test seam: swaps the predictor stage",
	// Interface methods, called through the interface.
	"*.Less":          "sort.Interface",
	"*.Swap":          "sort.Interface",
	"*.MarshalJSON":   "json.Marshaler",
	"*.UnmarshalJSON": "json.Unmarshaler",
	"*.ReadFrom":      "io.ReaderFrom",
	"*.Push":          "container/heap.Interface",
	"*.Pop":           "container/heap.Interface",
}

// TestNoDeadExportedSurface parses every non-test Go file of the module
// and fails for each exported name nothing reads. Outside bench/, cmd/
// and examples/, an exported function or method is dead when no non-test
// code outside its own declaration refers to it: as a call (Name(...)),
// a selector (x.Name) or a value (a registry entry such as
// exper.Reports'). Under internal/, an exported function, method,
// constant or variable is dead unless non-test code of another package
// (bench/, cmd/ and examples/ included) names it in a selector: a name
// only its own package reads is the package's, not its surface. The
// match is by name, so it errs towards keeping; liveWithoutCaller holds
// the rest, and an entry there that names nothing, or something that
// has a reader, fails too.
func TestNoDeadExportedSurface(t *testing.T) {
	type decl struct {
		key, file, dir string
		internal       bool
		start, end     token.Pos
	}
	type ref struct {
		file, dir string
		pos       token.Pos
		sel       bool
	}
	var decls []decl
	refs := make(map[string][]ref)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		top, _, _ := strings.Cut(filepath.ToSlash(path), "/")
		checked := top != "bench" && top != "cmd" && top != "examples"
		internal := top == "internal"
		dir := filepath.Dir(path)
		pkg := filepath.Base(dir)
		if pkg == "." {
			pkg = "uaqetp"
		}
		add := func(key string, n ast.Node) {
			decls = append(decls, decl{key, path, dir, internal, n.Pos(), n.End()})
		}
		// Package-level constants and variables, under internal/ only.
		for _, gd := range f.Decls {
			gd, ok := gd.(*ast.GenDecl)
			if !internal || !ok || gd.Tok != token.CONST && gd.Tok != token.VAR {
				continue
			}
			for _, sp := range gd.Specs {
				for _, id := range sp.(*ast.ValueSpec).Names {
					if id.IsExported() {
						add(pkg+"."+id.Name, sp)
					}
				}
			}
		}
		// Names that declare rather than refer: functions, fields,
		// parameters, types, variables and composite-literal keys.
		declaring := make(map[*ast.Ident]bool)
		selected := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declaring[n.Name] = true
				if checked && n.Name.IsExported() {
					key := pkg + "." + n.Name.Name
					if n.Recv != nil {
						key = pkg + "." + recvName(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					add(key, n)
				}
			case *ast.Field:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.TypeSpec:
				declaring[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declaring[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					declaring[id] = true
				}
			case *ast.SelectorExpr:
				selected[n.Sel] = true
			case *ast.Ident:
				if !declaring[n] {
					refs[n.Name] = append(refs[n.Name], ref{path, dir, n.Pos(), selected[n]})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	matched := make(map[string]bool) // liveWithoutCaller keys that name a declaration
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		live := false
		for _, r := range refs[name] {
			if d.internal && r.sel && r.dir != d.dir ||
				!d.internal && (r.file != d.file || r.pos < d.start || r.pos >= d.end) {
				live = true
				break
			}
		}
		_, listed := liveWithoutCaller[d.key]
		switch {
		case live:
			if listed {
				t.Errorf("liveWithoutCaller lists %s, which has a reader: drop the entry", d.key)
				matched[d.key] = true
			}
		case listed:
			matched[d.key] = true
		case liveWithoutCaller["*."+name] != "":
			matched["*."+name] = true
		default:
			dead = append(dead, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s: nothing outside its package (under internal/) or its declaration reads it; unexport or delete it, or list it with a reason in liveWithoutCaller", d)
	}
	for key := range liveWithoutCaller {
		if !matched[key] {
			t.Errorf("liveWithoutCaller lists %s, which no unread exported name declares", key)
		}
	}
}

// recvName returns the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
