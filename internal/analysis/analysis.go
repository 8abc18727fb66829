// Package analysis is lisa-vet's static-analysis driver: a pure-stdlib
// (go/parser, go/ast, go/types, go/token — no x/tools) framework with
// repo-specific analyzers that machine-check the determinism and
// concurrency invariants the LISA pipeline depends on.
//
// Reproducible GNN-guided mapping means the same DFG + arch + seed must
// yield byte-identical results: the traingen→gnn→mapper pipeline corrupts
// its own training labels if any hot path drifts, and the lisa-serve result
// cache serves stale bytes as ground truth. The determinism analyzers
// (maprange, globalrand, wallclock, errdrop) check the drift classes fixed
// by hand in past PRs. The concurrency/perf analyzers added for the
// distributed daemon check what code review historically missed:
//
//   - lockorder: interprocedural mutex tracking — lock-order cycles,
//     double-acquire (direct or through a call chain), early returns while
//     holding a lock without a deferred unlock, and locks held across
//     blocking calls (fsync, HTTP, sleeps).
//   - goleak: goroutines with no termination path, time.After inside
//     loops, and unbuffered-channel sends from spawned goroutines.
//   - hotalloc: functions annotated //lisa:hotpath must be transitively
//     free of map/slice literals, un-preallocated append growth, escaping
//     closure captures, and fmt calls — the source-level form of the
//     BENCH_*.json alloc ceilings.
//   - faultsite: every fault-injection site registered in internal/fault
//     has exactly one matching fault.Inject call site and vice versa.
//
// Diagnostics are suppressed per line with
//
//	//lisa:vet-ok <analyzer> <reason>
//
// on the flagged line or the line directly above it. Both the analyzer
// name and the reason are mandatory: a suppression that names no analyzer,
// names an unknown analyzer, or gives no reason is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Per-package analyzers set Run; whole-
// program analyzers (faultsite) set RunGlobal and are invoked once with
// every loaded package.
type Analyzer struct {
	Name      string // short lowercase identifier, shown in diagnostics
	Doc       string // one-line description for -list
	Run       func(*Pass)
	RunGlobal func(*GlobalPass)
}

// All is the full analyzer set run by `lisa-vet` with no -run flag.
var All = []*Analyzer{MapRange, GlobalRand, WallClock, ErrDrop, LockOrder, GoLeak, HotAlloc, FaultSite}

// knownAnalyzer reports whether name identifies a registered analyzer —
// the set a //lisa:vet-ok comment may name.
func knownAnalyzer(name string) bool {
	for _, a := range All {
		if a.Name == name {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Position token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Stats summarizes one Run for `lisa-vet -stats`: per-analyzer counts of
// reported findings and of //lisa:vet-ok suppressions present in the
// analyzed source (whether or not a finding hit them), plus the number of
// //lisa:hotpath roots seen — CI asserts the latter stays non-zero so the
// hotalloc gate cannot be deleted silently.
type Stats struct {
	Findings     map[string]int `json:"findings"`
	Suppressions map[string]int `json:"suppressions"`
	HotpathFuncs int            `json:"hotpathFunctions"`
}

// A Pass couples one analyzer with one package; analyzers report through it.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, diagAt(p.Pkg.Fset, pos, p.Analyzer.Name, format, args...))
}

// TypeOf returns the type of e, or nil if the type checker has no record.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf resolves an identifier to the object it uses or defines.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// A GlobalPass couples a whole-program analyzer with every loaded package.
type GlobalPass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos, resolved through pkg's FileSet.
func (p *GlobalPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, diagAt(pkg.Fset, pos, p.Analyzer.Name, format, args...))
}

func diagAt(fset *token.FileSet, pos token.Pos, analyzer, format string, args ...any) Diagnostic {
	position := fset.Position(pos)
	return Diagnostic{
		Position: position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// suppressPrefix is the suppression comment marker.
const suppressPrefix = "lisa:vet-ok"

// suppression is one //lisa:vet-ok comment, located by file and line and
// scoped to one analyzer.
type suppression struct {
	file     string
	line     int
	analyzer string // analyzer the suppression names; "" if missing
	reason   string
	pos      token.Pos
}

// collectSuppressions scans a parsed file's comments for suppression
// markers. Malformed entries (no analyzer, no reason) are kept so Run can
// report them.
func collectSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			rest, ok := markerRest(text, suppressPrefix)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			s := suppression{file: pos.Filename, line: pos.Line, pos: c.Pos()}
			if fields := strings.Fields(rest); len(fields) > 0 {
				s.analyzer = fields[0]
				s.reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			}
			out = append(out, s)
		}
	}
	return out
}

// markerRest returns the text after prefix when text begins with prefix on
// a word boundary (so lisa:vet-okay is not ours).
func markerRest(text, prefix string) (string, bool) {
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// wellFormed reports whether s is a usable suppression: known analyzer,
// non-empty reason.
func (s suppression) wellFormed() bool {
	return s.analyzer != "" && s.reason != "" && knownAnalyzer(s.analyzer)
}

// suppressed reports whether d is covered by a well-formed suppression
// naming d's analyzer on its line or the line directly above.
func (pkg *Package) suppressed(d Diagnostic) bool {
	for _, s := range pkg.suppressions {
		if !s.wellFormed() || s.analyzer != d.Analyzer {
			continue
		}
		if s.file == d.File && (s.line == d.Line || s.line == d.Line-1) {
			return true
		}
	}
	return false
}

// suppressionDiags reports every malformed suppression in pkg: these are
// findings in their own right (analyzer name "suppression") and cannot
// themselves be suppressed.
func (pkg *Package) suppressionDiags() []Diagnostic {
	var diags []Diagnostic
	for _, s := range pkg.suppressions {
		var msg string
		switch {
		case s.analyzer == "":
			msg = "//" + suppressPrefix + " needs an analyzer and a reason: //" + suppressPrefix + " <analyzer> <reason>"
		case !knownAnalyzer(s.analyzer):
			msg = fmt.Sprintf("//%s names unknown analyzer %q (known: %s)", suppressPrefix, s.analyzer, analyzerNames())
		case s.reason == "":
			msg = fmt.Sprintf("//%s %s needs a reason: //%s %s <why this finding is acceptable>",
				suppressPrefix, s.analyzer, suppressPrefix, s.analyzer)
		default:
			continue
		}
		diags = append(diags, Diagnostic{
			File:     s.file,
			Line:     s.line,
			Col:      pkg.Fset.Position(s.pos).Column,
			Analyzer: "suppression",
			Message:  msg,
		})
	}
	return diags
}

func analyzerNames() string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Run applies every analyzer to every package and returns the unsuppressed
// diagnostics sorted by file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunWithStats(pkgs, analyzers)
	return diags
}

// RunWithStats is Run plus the per-analyzer counters behind
// `lisa-vet -stats`.
func RunWithStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, Stats) {
	stats := Stats{Findings: map[string]int{}, Suppressions: map[string]int{}}
	var diags []Diagnostic
	keep := func(pkg *Package, found []Diagnostic) {
		for _, d := range found {
			if pkg != nil && pkg.suppressed(d) {
				continue
			}
			if pkg == nil && suppressedAny(pkgs, d) {
				continue
			}
			stats.Findings[d.Analyzer]++
			diags = append(diags, d)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			keep(pkg, pass.diags)
		}
		keep(pkg, pkg.suppressionDiags())
		for _, s := range pkg.suppressions {
			if s.wellFormed() {
				stats.Suppressions[s.analyzer]++
			}
		}
		stats.HotpathFuncs += len(hotpathRoots(pkg))
	}
	for _, a := range analyzers {
		if a.RunGlobal == nil {
			continue
		}
		gp := &GlobalPass{Analyzer: a, Pkgs: pkgs}
		a.RunGlobal(gp)
		keep(nil, gp.diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, stats
}

// suppressedAny reports whether any loaded package's suppressions cover d
// (global analyzers report across package boundaries).
func suppressedAny(pkgs []*Package, d Diagnostic) bool {
	for _, pkg := range pkgs {
		if pkg.suppressed(d) {
			return true
		}
	}
	return false
}

// resultPackages are the packages whose output feeds training labels,
// figures, or the service result cache: any nondeterminism here either
// poisons datasets or breaks cache byte-identity. Matched as path suffixes
// so the fixture packages under testdata/src/ resolve the same way.
var resultPackages = []string{
	"internal/mapper",
	"internal/gnn",
	"internal/labels",
	"internal/traingen",
	"internal/dfg",
	"internal/ilp",
	"internal/experiments",
	"internal/registry",
	"internal/service",
	"internal/engine",
	"internal/fault",
	"internal/store",
	"internal/cluster",
}

// inResultPackage reports whether pkgPath is one of the result-affecting
// packages (by path-segment-aligned suffix match).
func inResultPackage(pkgPath string) bool {
	for _, s := range resultPackages {
		if pathHasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether path ends in suffix on a "/" boundary.
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}
