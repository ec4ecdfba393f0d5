// Command detlint runs the repro determinism suite
// (internal/analysis): nondeterminism, rngdiscipline, hotpathalloc,
// atomicdiscipline, and the directive validator.
//
// It is a vet tool: `go vet -vettool=$(command -v detlint) ./...`. The
// go command drives it with the unitchecker protocol — probe it with
// -V=full and -flags, then invoke it once per package with a vet.cfg
// describing the file set and the export data of every dependency,
// expecting a facts (vetx) output file and exit 2 when findings are
// reported.
package main

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The go command probes the tool before using it: -V=full must print
	// a version line whose second field is "version" (and third is not
	// "devel") for the build cache to key on, and -flags must print the
	// tool's flags as JSON so go vet can validate pass-through flags.
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			fmt.Println("detlint version v1-determinism-suite")
			return 0
		case "-flags", "--flags":
			fmt.Println("[]")
			return 0
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		return runVetConfig(args[n-1])
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v detlint) [packages]")
	return 2
}

// vetConfig is the JSON the go command hands a -vettool per package —
// the subset of cmd/go/internal/work.vetConfig the tool consumes.
type vetConfig struct {
	ID         string
	Dir        string
	ImportPath string
	GoFiles    []string
	// ImportMap sends source-level import paths to canonical package
	// paths (vendoring, test variants); PackageFile sends canonical
	// paths to the export data built for each dependency.
	ImportMap   map[string]string
	PackageFile map[string]string
	// VetxOnly marks a dependency-only invocation: the go command wants
	// the tool's facts output and no diagnostics. Detlint carries no
	// cross-package facts, so these are answered with an empty file.
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetConfig is one unitchecker-protocol invocation.
func runVetConfig(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "detlint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// The facts file must exist for the go command to cache the action,
	// findings or not.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// Imports resolve through the export data the go command already
	// built: source import path → canonical path → .a file.
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	fset := token.NewFileSet()
	pkg, err := analysis.CheckFiles(cfg.ImportPath, fset, cfg.GoFiles, importer.ForCompiler(fset, "gc", lookup))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}
	diags, err := analysis.Run(pkg, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		return 2
	}
	found := false
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		found = true
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if found {
		return 2
	}
	return 0
}
