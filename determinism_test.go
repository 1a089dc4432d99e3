package srlproc

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

func detConfig(d StoreDesign) Config {
	cfg := DefaultConfig(d)
	cfg.Seed = 7
	cfg.WarmupUops = 2_000
	cfg.RunUops = 8_000
	return cfg
}

func resultsJSON(t *testing.T, cfg Config, suite Suite) []byte {
	t.Helper()
	b, err := json.Marshal(mustRun(t, cfg, suite))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeterministicResults runs the same configuration and seed twice and
// requires byte-identical Results JSON — once plain, once with the
// observability layer enabled, once with the lockstep oracle enabled. The
// simulator carries no hidden global state (wall clock, map iteration
// order, pointer hashing) into its outputs, so identical inputs must give
// identical bytes; any drift here means a reported run is not reproducible
// from its config fingerprint.
func TestDeterministicResults(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"obs", func(c *Config) { c.Obs = DefaultObsConfig() }},
		{"check", func(c *Config) { c.Check = true }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := detConfig(DesignSRL)
			v.mod(&cfg)
			a := resultsJSON(t, cfg, SINT2K)
			b := resultsJSON(t, cfg, SINT2K)
			if !bytes.Equal(a, b) {
				t.Fatalf("same config+seed produced different Results JSON:\n%s\n---\n%s", a, b)
			}
		})
	}
}

// TestCheckedRunMatchesUnchecked: the oracle observes the pipeline, it must
// not perturb it. A checked run's performance results (cycles, committed
// uops, restarts) must equal the unchecked run's bit for bit.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	for _, d := range []StoreDesign{DesignBaseline, DesignSRL, DesignHierarchical} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			cfg := detConfig(d)
			plain := mustRun(t, cfg, SINT2K)
			cfg.Check = true
			checked := mustRun(t, cfg, SINT2K)
			if checked.DivergenceCount != 0 {
				t.Fatalf("oracle reported %d divergences: %v", checked.DivergenceCount, checked.Divergences[0])
			}
			if plain.Cycles != checked.Cycles || plain.Uops != checked.Uops || plain.Restarts != checked.Restarts {
				t.Fatalf("oracle perturbed the run: cycles %d/%d uops %d/%d restarts %d/%d",
					plain.Cycles, checked.Cycles, plain.Uops, checked.Uops, plain.Restarts, checked.Restarts)
			}
		})
	}
}

// simPackages are the packages whose code decides a simulation's result.
var simPackages = []string{"core", "lsq", "cachesim", "trace", "oracle"}

// TestNoMapRangeInSimulator makes determinism structural: no loop in the
// simulator packages (non-test files) may range over a map, whose
// iteration order Go randomizes, unless its line carries an
// "// order-independent: <reason>" comment saying why the order cannot
// reach a result. The packages are type-checked from source, so a range
// over a named map type or a map-returning call is caught too.
func TestNoMapRangeInSimulator(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, name := range simPackages {
		files, info, err := checkDir(fset, imp, filepath.Join("internal", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			annotated := map[int]bool{}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if reason, ok := strings.CutPrefix(c.Text, "// order-independent:"); ok && strings.TrimSpace(reason) != "" {
						annotated[fset.Position(c.Pos()).Line] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
					if pos := fset.Position(rs.For); !annotated[pos.Line] {
						t.Errorf("%s: range over map %s without an // order-independent: comment",
							pos, types.ExprString(rs.X))
					}
				}
				return true
			})
		}
	}
}

// checkDir parses and type-checks the non-test files of the package in
// dir, relative to the module root.
func checkDir(fset *token.FileSet, imp types.Importer, dir string) ([]*ast.File, *types.Info, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	_, err = (&types.Config{Importer: imp}).Check("srlproc/"+filepath.ToSlash(dir), fset, files, info)
	return files, info, err
}
