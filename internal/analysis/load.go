package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// goldenFset and goldenImporter are shared by every loadDir call so the
// golden tests type-check each stdlib dependency once per process, not
// once per analyzer.
var (
	goldenFset     *token.FileSet
	goldenImporter types.Importer
)

// loadDir parses and type-checks the single package rooted at dir — the
// golden-test entry point for analysistest packages under testdata,
// which go list refuses to enumerate. Imports resolve from source, so
// testdata packages may use the stdlib and the module's own packages.
// Not safe for concurrent use (the golden tests run sequentially).
func loadDir(dir string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(matches) == 0 {
		return nil, fmt.Errorf("analysis: no Go files under %s", dir)
	}
	slices.Sort(matches)
	if goldenFset == nil {
		goldenFset = token.NewFileSet()
		goldenImporter = importer.ForCompiler(goldenFset, "source", nil)
	}
	return CheckFiles("testdata/"+filepath.Base(dir), goldenFset, matches, goldenImporter)
}

// CheckFiles parses the given files as one package and type-checks them
// with the importer. loadDir (golden tests, source importer) and
// cmd/detlint (vet tool, export-data importer) both load through it.
func CheckFiles(path string, fset *token.FileSet, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	return CheckParsed(path, fset, files, imp)
}

// CheckParsed type-checks already-parsed files as the package at path.
func CheckParsed(path string, fset *token.FileSet, files []*ast.File, imp types.Importer) (*Package, error) {
	info := NewInfo()
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
	}
	tpkg, err := conf.Check(TrimVariant(path), fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
