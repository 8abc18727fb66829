package analysis

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// goldenCases pairs each analyzer with a fixture package seeded with
// violations (and non-violations) and the golden transcript of the
// diagnostics it must produce.
var goldenCases = []struct {
	name      string // also the golden file stem
	fixture   string // dir under testdata/src/internal/
	asPath    string // import path the fixture poses as
	imports   []string
	analyzers []*Analyzer
}{
	{
		name:      "maprange",
		fixture:   "mapper",
		asPath:    "example.com/fixture/internal/mapper",
		imports:   []string{"sort", "time"},
		analyzers: []*Analyzer{MapRange},
	},
	{
		name:      "wallclock",
		fixture:   "mapper",
		asPath:    "example.com/fixture/internal/mapper",
		imports:   []string{"sort", "time"},
		analyzers: []*Analyzer{WallClock},
	},
	{
		name:      "globalrand",
		fixture:   "randfix",
		asPath:    "example.com/fixture/internal/randfix",
		imports:   []string{"math/rand"},
		analyzers: []*Analyzer{GlobalRand},
	},
	{
		name:      "errdrop",
		fixture:   "errfix",
		asPath:    "example.com/fixture/internal/errfix",
		imports:   []string{"fmt", "os", "strings"},
		analyzers: []*Analyzer{ErrDrop},
	},
	{
		name:    "suppression",
		fixture: "suppressfix",
		// Poses as a result package so the maprange findings the malformed
		// suppressions fail to silence show up next to the suppression
		// diagnostics.
		asPath:    "example.com/fixture/internal/mapper",
		analyzers: []*Analyzer{MapRange},
	},
	{
		name:      "lockorder",
		fixture:   "lockfix",
		asPath:    "example.com/fixture/internal/lockfix",
		imports:   []string{"sync", "time"},
		analyzers: []*Analyzer{LockOrder},
	},
	{
		name:      "goleak",
		fixture:   "leakfix",
		asPath:    "example.com/fixture/internal/leakfix",
		imports:   []string{"time"},
		analyzers: []*Analyzer{GoLeak},
	},
	{
		name:      "hotalloc",
		fixture:   "hotfix",
		asPath:    "example.com/fixture/internal/hotfix",
		imports:   []string{"fmt"},
		analyzers: []*Analyzer{HotAlloc},
	},
	{
		name:      "faultsite",
		fixture:   "fault",
		asPath:    "example.com/fixture/internal/fault",
		analyzers: []*Analyzer{FaultSite},
	},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", "internal", tc.fixture)
			pkg, err := LoadFixture(dir, tc.asPath, tc.imports)
			if err != nil {
				t.Fatalf("LoadFixture(%s): %v", dir, err)
			}
			diags := Run([]*Package{pkg}, tc.analyzers)
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no diagnostics; each fixture must seed at least one violation", tc.fixture)
			}
			var b strings.Builder
			for _, d := range diags {
				// Keep goldens machine-independent: base name only.
				d.File = filepath.Base(d.File)
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
			got := b.String()

			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/analysis -run TestGolden -update`): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("diagnostics differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestFixturesFailViaRealLoader drives the production Load path (go list
// -export) over every fixture package and checks the full analyzer set finds
// the seeded violations — this is the in-process version of the CI gate that
// `lisa-vet` exits nonzero on each fixture.
func TestFixturesFailViaRealLoader(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	patterns := []string{
		"./internal/analysis/testdata/src/internal/mapper",
		"./internal/analysis/testdata/src/internal/randfix",
		"./internal/analysis/testdata/src/internal/errfix",
		"./internal/analysis/testdata/src/internal/suppressfix",
		"./internal/analysis/testdata/src/internal/lockfix",
		"./internal/analysis/testdata/src/internal/leakfix",
		"./internal/analysis/testdata/src/internal/hotfix",
		"./internal/analysis/testdata/src/internal/fault",
	}
	pkgs, err := Load("../..", patterns)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != len(patterns) {
		t.Fatalf("Load returned %d packages, want %d", len(pkgs), len(patterns))
	}
	for _, pkg := range pkgs {
		diags := Run([]*Package{pkg}, All)
		if len(diags) == 0 {
			t.Errorf("%s: no diagnostics from seeded-violation fixture", pkg.Path)
		}
	}
}

// TestCollectSuppressions covers the comment-scanning corner cases directly.
func TestCollectSuppressions(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //lisa:vet-ok maprange with a reason
	//lisa:vet-ok maprange
	_ = 2
	_ = 3 //lisa:vet-okay different marker, not ours
	_ = 4 // lisa:vet-ok goleak leading space still counts
	_ = 5 //lisa:vet-ok
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := collectSuppressions(fset, file)
	want := []struct {
		line     int
		analyzer string
		reason   string
	}{
		{4, "maprange", "with a reason"},
		{5, "maprange", ""},
		{8, "goleak", "leading space still counts"},
		{9, "", ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d suppressions, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		s := got[i]
		if s.line != w.line || s.analyzer != w.analyzer || s.reason != w.reason {
			t.Errorf("suppression %d = {line %d analyzer %q reason %q}, want {line %d analyzer %q reason %q}",
				i, s.line, s.analyzer, s.reason, w.line, w.analyzer, w.reason)
		}
	}
}

// TestSuppressedLineAbove checks that a well-formed comment suppresses its
// own analyzer's finding on the line below it but nothing else: not two
// lines down, not another analyzer, and never when malformed.
func TestSuppressedLineAbove(t *testing.T) {
	pkg := &Package{suppressions: []suppression{
		{file: "f.go", line: 10, analyzer: "maprange", reason: "x"},
		{file: "f.go", line: 20, analyzer: "maprange"},              // no reason: malformed
		{file: "f.go", line: 30, analyzer: "mapranje", reason: "x"}, // unknown analyzer
	}}
	for _, tc := range []struct {
		line     int
		analyzer string
		want     bool
	}{
		{10, "maprange", true},
		{11, "maprange", true},
		{12, "maprange", false},
		{9, "maprange", false},
		{11, "goleak", false}, // scoped: wrong analyzer
		{21, "maprange", false},
		{31, "maprange", false},
	} {
		d := Diagnostic{File: "f.go", Line: tc.line, Analyzer: tc.analyzer}
		if got := pkg.suppressed(d); got != tc.want {
			t.Errorf("suppressed(line %d, %s) = %v, want %v", tc.line, tc.analyzer, got, tc.want)
		}
	}
}

// TestTreeClean is the in-process form of the CI gate `lisa-vet ./...`:
// the repo's own source must pass the full analyzer set with zero
// unsuppressed diagnostics.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list over the whole module")
	}
	pkgs, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	diags, stats := RunWithStats(pkgs, All)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if stats.HotpathFuncs == 0 {
		t.Error("no //lisa:hotpath roots found in the tree; the hotalloc gate is not checking anything")
	}
}

func TestPathHasSuffix(t *testing.T) {
	for _, tc := range []struct {
		path, suffix string
		want         bool
	}{
		{"internal/mapper", "internal/mapper", true},
		{"github.com/lisa-go/lisa/internal/mapper", "internal/mapper", true},
		{"github.com/lisa-go/lisa/internal/remapper", "internal/mapper", false},
		{"example.com/x/testdata/src/internal/mapper", "internal/mapper", true},
	} {
		if got := pathHasSuffix(tc.path, tc.suffix); got != tc.want {
			t.Errorf("pathHasSuffix(%q, %q) = %v, want %v", tc.path, tc.suffix, got, tc.want)
		}
	}
}
