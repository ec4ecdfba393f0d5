package analysis

import "testing"

// testGolden runs analyzers over one golden package and reports every
// mismatch between diagnostics and `// want` markers.
func testGolden(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	problems, err := checkGolden(dir, analyzers...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestNondeterminismGolden(t *testing.T) {
	testGolden(t, "testdata/src/nondet", Nondeterminism)
}

func TestNondeterminismUnscopedGolden(t *testing.T) {
	// No engine directive, not an engine package: zero findings expected.
	testGolden(t, "testdata/src/nondet/unscoped", Nondeterminism)
}

func TestRNGDisciplineGolden(t *testing.T) {
	testGolden(t, "testdata/src/rng", RNGDiscipline)
}

func TestHotPathAllocGolden(t *testing.T) {
	testGolden(t, "testdata/src/hotpath", HotPathAlloc)
}

func TestAtomicDisciplineGolden(t *testing.T) {
	testGolden(t, "testdata/src/atomicdisc", AtomicDiscipline)
}

func TestDirectivesGolden(t *testing.T) {
	testGolden(t, "testdata/src/directives", Directives)
}
