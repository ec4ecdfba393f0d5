package analysis

import (
	"fmt"
	"regexp"
	"strings"
)

// expectation is one `// want "regex"` marker in a golden file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkGolden runs the analyzers over the golden package at dir
// (testdata/src/<name>) and compares the diagnostics against the
// package's `// want "regex"` line markers, in the style of
// golang.org/x/tools/go/analysis/analysistest:
//
//   - every unsuppressed diagnostic must match a want on its line;
//   - every want must be matched by some diagnostic;
//   - diagnostics silenced by //detlint:allow must NOT have a want —
//     a honored suppression is the absence of a finding.
//
// It returns the list of mismatches (empty = pass), so the test
// wrapper stays a two-liner and the harness itself needs no *testing.T.
func checkGolden(dir string, analyzers ...*Analyzer) ([]string, error) {
	pkg, err := loadDir(dir)
	if err != nil {
		return nil, err
	}
	diags, err := Run(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	wants, err := parseWants(pkg)
	if err != nil {
		return nil, err
	}

	var problems []string
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		if !claimWant(wants, d) {
			problems = append(problems, fmt.Sprintf("%s:%d: unexpected diagnostic: %s: %s",
				d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message))
		}
	}
	for _, w := range wants {
		if !w.matched {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw))
		}
	}
	return problems, nil
}

// claimWant marks and returns the first unmatched want on the
// diagnostic's line whose regexp matches the message.
func claimWant(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts the `// want "re" "re"...` markers from every
// comment of the package.
func parseWants(pkg *Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Substring, not prefix: a want marker may ride at the
				// end of a detlint directive under test.
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				text := c.Text[i+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitQuoted(text) {
					re, err := regexp.Compile(raw)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants, nil
}

// splitQuoted extracts the double-quoted segments of a want comment.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		s = s[i+1:]
		j := strings.IndexByte(s, '"')
		if j < 0 {
			return out
		}
		out = append(out, s[:j])
		s = s[j+1:]
	}
}
