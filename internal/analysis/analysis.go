// Package analysis is the repro's static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// API shape (Analyzer, Pass, Diagnostic) plus the detlint directive
// machinery. The container this repo grows in has no module proxy, so
// the framework is built on go/ast and go/types alone; the analyzers it
// hosts mechanically enforce the contracts the fleet engine's
// correctness rests on — determinism, seed-derived RNG streams, and
// allocation-free hot paths — at vet time instead of only at test time.
//
// Directives (all are line comments, checked by the Directives
// analyzer):
//
//	//detlint:allow <analyzer> <reason>   suppress <analyzer> on this or the next line
//	//detlint:hotpath                     function must not contain allocating constructs
//	//detlint:atomic                      struct field may only be touched via sync/atomic
//	//detlint:engine                      file opts its package into the engine contract
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //detlint:allow directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports violations on pass and returns an error only for
	// analyzer-internal failures (never for findings).
	Run func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks a diagnostic silenced by a matching
	// //detlint:allow directive; drivers drop these, the test harness
	// asserts on them.
	Suppressed bool
}

// A Pass hands one analyzer everything it may inspect about one
// package. The same Pkg/Info is shared across analyzers; Report is
// analyzer-specific so suppression can match on the analyzer name.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// PkgPath is the canonical import path ("repro/internal/fleet"),
	// with any vet test-variant suffix already trimmed.
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	dirs  *fileDirectives
	diags *[]Diagnostic
}

// Reportf records a violation at pos. Suppression by //detlint:allow is
// resolved here so every analyzer gets the escape hatch for free.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Analyzer:   p.Analyzer.Name,
		Pos:        position,
		Message:    fmt.Sprintf(format, args...),
		Suppressed: p.dirs.allows(p.Analyzer.Name, position),
	}
	*p.diags = append(*p.diags, d)
}

// IsTestFile reports whether the file holding pos is a _test.go file;
// analyzers whose contract only binds engine code skip those.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Package bundles one loaded, type-checked package for the runner —
// produced by loadDir (golden tests, source importer) or by the vet
// config path (gc export data) in cmd/detlint.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Run applies the analyzers to the package and returns the diagnostics
// sorted by position. Diagnostics silenced by //detlint:allow are
// returned with Suppressed set; plain drivers drop them, the golden
// harness checks them.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	dirs := parseDirectives(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  TrimVariant(pkg.Path),
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			dirs:     dirs,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis %s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	slices.SortFunc(diags, func(x, y Diagnostic) int {
		if c := cmp.Compare(x.Pos.Filename, y.Pos.Filename); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Pos.Line, y.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Pos.Column, y.Pos.Column); c != 0 {
			return c
		}
		return cmp.Compare(x.Analyzer, y.Analyzer)
	})
	return diags, nil
}

// TrimVariant strips the vet test-variant suffix from an import path:
// "repro/internal/fleet [repro/internal/fleet.test]" names the same
// package as "repro/internal/fleet" for scoping purposes.
func TrimVariant(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}
