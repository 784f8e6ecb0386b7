package lintrules_test

// The fixture driver: typechecks every package of the lintfixtures
// module under testdata/fixtures in dependency order (util, the purity
// helper, first), threads purity facts between packages through the
// same JSON wire format cmd/loggpvet writes into .vetx files, and
// checks Analyze's findings against the `// want <rule>` markers in
// the fixture sources — exactly, in both directions, so an `// ok`
// construct that starts firing fails the test just as loudly as a
// `// want` that goes silent.

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"loggpsim/internal/lintrules"
)

const fixtureModule = "lintfixtures"

var fixtureRoot = filepath.Join("testdata", "fixtures")

// fixtureImporter resolves the fixture module's own packages from the
// already-typechecked set and everything else from source (the test
// environment has no compiled export data to hand).
type fixtureImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (im fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// fixtureDirs lists the fixture packages with util first: it is the
// dependency every purity fixture imports, so its facts must exist
// before its importers are analyzed — the same topological constraint
// the vet driver discharges via .vetx files.
func fixtureDirs(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{"util"}
	for _, e := range entries {
		if e.IsDir() && e.Name() != "util" {
			dirs = append(dirs, e.Name())
		}
	}
	return dirs
}

// analyzeFixtures runs Analyze over every fixture package and returns
// findings keyed by package directory. Purity facts cross package
// boundaries only after a JSON round-trip, mirroring the vetx wire.
func analyzeFixtures(t *testing.T) map[string][]lintrules.Finding {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*types.Package{}
	factsWire := map[string][]byte{}
	results := map[string][]lintrules.Finding{}

	for _, dir := range fixtureDirs(t) {
		names, err := filepath.Glob(filepath.Join(fixtureRoot, dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("fixture package %s: %v (files: %d)", dir, err, len(names))
		}
		sort.Strings(names)
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		}
		pkgPath := fixtureModule + "/" + dir
		conf := types.Config{Importer: fixtureImporter{std: std, pkgs: pkgs}}
		pkg, err := conf.Check(pkgPath, fset, files, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", pkgPath, err)
		}
		findings, facts := lintrules.Analyze(&lintrules.Pass{
			Fset:    fset,
			Files:   files,
			PkgPath: pkgPath,
			Module:  fixtureModule,
			Info:    info,
			DepFacts: func(dep string) *lintrules.PackageFacts {
				wire, ok := factsWire[dep]
				if !ok {
					return nil
				}
				var f lintrules.PackageFacts
				if err := json.Unmarshal(wire, &f); err != nil || f.Version != lintrules.FactsVersion {
					return nil
				}
				return &f
			},
		})
		wire, err := json.Marshal(facts)
		if err != nil {
			t.Fatal(err)
		}
		factsWire[pkgPath] = wire
		pkgs[pkgPath] = pkg
		results[dir] = findings
	}
	return results
}

var (
	wantMarker = regexp.MustCompile(`// want ([a-z]+)`)
	okMarker   = regexp.MustCompile(`// ok ([a-z]+)`)
)

// fixtureMarkers scans every fixture source for markers, returning
// file:line → rules for `// want` and a per-rule count for `// ok`.
func fixtureMarkers(t *testing.T) (want map[string][]string, okCount map[string]int) {
	t.Helper()
	want = map[string][]string{}
	okCount = map[string]int{}
	err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(fixtureRoot, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantMarker.FindAllStringSubmatch(line, -1) {
				key := filepath.ToSlash(rel) + ":" + strconv.Itoa(i+1)
				want[key] = append(want[key], m[1])
			}
			for _, m := range okMarker.FindAllStringSubmatch(line, -1) {
				okCount[m[1]]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want, okCount
}

// TestFixtureMarkers is the exact two-way check: every `// want`
// marker must produce a finding of that rule at that line, and every
// finding must be covered by a marker — so the `// ok` constructs are
// verified silent for free.
func TestFixtureMarkers(t *testing.T) {
	results := analyzeFixtures(t)
	want, _ := fixtureMarkers(t)

	got := map[string][]string{}
	for _, findings := range results {
		for _, f := range findings {
			rel, err := filepath.Rel(fixtureRoot, f.Pos.Filename)
			if err != nil || strings.HasPrefix(rel, "..") {
				t.Errorf("finding outside the fixture tree: %s", f)
				continue
			}
			key := filepath.ToSlash(rel) + ":" + strconv.Itoa(f.Pos.Line)
			got[key] = append(got[key], f.Rule)
		}
	}

	has := func(m map[string][]string, key, rule string) bool {
		for _, r := range m[key] {
			if r == rule {
				return true
			}
		}
		return false
	}
	for key, rules := range want {
		for _, rule := range rules {
			if !has(got, key, rule) {
				t.Errorf("%s: marked `// want %s` but the rule did not fire", key, rule)
			}
		}
	}
	for key, rules := range got {
		for _, rule := range rules {
			if !has(want, key, rule) {
				t.Errorf("%s: unexpected %s finding (no `// want %s` marker)", key, rule, rule)
			}
		}
	}
}

// TestPurityChains pins the interprocedural substance of the purity
// findings: full call chains, rendered boundary-first, surviving the
// facts JSON round-trip.
func TestPurityChains(t *testing.T) {
	results := analyzeFixtures(t)

	purity := map[string]lintrules.Finding{} // entry function suffix → finding
	for _, f := range results["sim"] {
		if f.Rule != "purity" {
			continue
		}
		name, _, ok := strings.Cut(f.Msg, " reaches ")
		if !ok {
			t.Fatalf("purity message without a 'reaches' clause: %q", f.Msg)
		}
		purity[name[strings.LastIndexByte(name, '.')+1:]] = f
	}

	deep, ok := purity["DeepChain"]
	if !ok {
		t.Fatal("no purity finding for sim.DeepChain")
	}
	if len(deep.Chain) != 4 {
		t.Errorf("DeepChain chain has %d frames, want 4 (entry, util.Deep, util.WallElapsed, time.Now): %q", len(deep.Chain), deep.Chain)
	}
	if !strings.HasSuffix(deep.Chain[0], ".DeepChain") {
		t.Errorf("DeepChain chain does not start at the entry function: %q", deep.Chain[0])
	}
	if last := deep.Chain[len(deep.Chain)-1]; !strings.Contains(last, "time.Now") {
		t.Errorf("DeepChain chain does not end at the source: %q", last)
	}
	if strings.Count(deep.Msg, " → ") != 3 {
		t.Errorf("DeepChain message should render 4 frames with 3 arrows: %q", deep.Msg)
	}

	if stamp, ok := purity["StampChain"]; !ok {
		t.Error("no purity finding for sim.StampChain")
	} else if len(stamp.Chain) != 3 {
		t.Errorf("StampChain chain has %d frames, want 3: %q", len(stamp.Chain), stamp.Chain)
	}
	if _, ok := purity["Relay"]; ok {
		t.Error("sim.Relay reported: boundary findings must not cascade to intra-package callers")
	}

	// resultcache sanctions no source: both chains through a helper are
	// findings, the wall clock's and the global generator's.
	var rc []string
	for _, f := range results["resultcache"] {
		if f.Rule == "purity" {
			rc = append(rc, f.Msg)
		}
	}
	sort.Strings(rc)
	if len(rc) != 2 || !strings.Contains(rc[0], "ExpiresAt reaches the wall clock") ||
		!strings.Contains(rc[1], "SeedFromGlobal reaches the global math/rand generator") {
		t.Errorf("resultcache purity findings = %q, want the ExpiresAt wallclock chain and the SeedFromGlobal globalrand chain", rc)
	}
}

// TestFindingRulesRegistered: every rule a fixture finding carries must
// exist in the -explain registry (SARIF rule indices depend on it).
func TestFindingRulesRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, r := range lintrules.Rules() {
		registered[r.Name] = true
	}
	for dir, findings := range analyzeFixtures(t) {
		for _, f := range findings {
			if !registered[f.Rule] {
				t.Errorf("%s: finding carries unregistered rule %q", dir, f.Rule)
			}
		}
	}
}
