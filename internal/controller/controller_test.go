package controller

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// validSpec builds a small, feasible spec.
func validSpec() Spec {
	const n, levels = 12, 4
	spec := Spec{Name: "test-app", Levels: levels, Rho: []int{1, 3, 6}}
	for i := 0; i < n; i++ {
		a := ActionSpec{Name: "op", Av: make([]int64, levels), WC: make([]int64, levels)}
		for q := 0; q < levels; q++ {
			a.Av[q] = int64(100+40*q) * 1000 // ns
			a.WC[q] = a.Av[q] * 3 / 2
		}
		spec.Actions = append(spec.Actions, a)
	}
	spec.Actions[n-1].Deadline = int64(n) * 260 * 1000
	return spec
}

func TestCompileValidSpec(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if b.System().NumActions() != 12 || b.System().NumLevels() != 4 {
		t.Fatalf("compiled dimensions wrong")
	}
	if got := b.RelaxTables().Rho(); len(got) != 3 {
		t.Fatalf("rho = %v", got)
	}
	if b.Spec().Name != "test-app" {
		t.Fatal("spec not retained")
	}
}

func TestCompileRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no actions", func(s *Spec) { s.Actions = nil }, "no actions"},
		{"one level", func(s *Spec) { s.Levels = 1 }, "levels"},
		{"row length", func(s *Spec) { s.Actions[0].Av = s.Actions[0].Av[:2] }, "entries"},
		{"no deadline", func(s *Spec) { s.Actions[len(s.Actions)-1].Deadline = 0 }, "no deadlines"},
		{"infeasible", func(s *Spec) { s.Actions[len(s.Actions)-1].Deadline = 1 }, "infeasible"},
		{"av above wc", func(s *Spec) { s.Actions[3].Av[1] = s.Actions[3].WC[1] + 1 }, "exceeds"},
		{"bad rho", func(s *Spec) { s.Rho = []int{4} }, "relaxation"},
		// The next two specs missed deadlines at worst-case times under
		// FuzzLoadBundle's guarantee. An action after the last deadline
		// can run its cycle into the next one's start.
		{"trailing action", func(s *Spec) {
			s.Actions = append(s.Actions, ActionSpec{Av: []int64{1, 2, 3, 4}, WC: []int64{1, 2, 3, 4}})
		}, "must carry a deadline"},
		// Timing rows whose sums overflow int64 wrap the tables and the
		// feasibility check.
		{"overflow", func(s *Spec) {
			*s = Spec{Levels: 2, Actions: []ActionSpec{
				{Av: []int64{1, 10}, WC: []int64{1 << 61, 1 << 61}, Deadline: 1<<62 - 1},
				{Av: []int64{1 << 61, 1 << 62}, WC: []int64{1<<63 - 6, 1<<63 - 6}, Deadline: 10},
				{Av: []int64{1, 1 << 62}, WC: []int64{1 << 62, 1<<63 - 1}, Deadline: 1000},
				{Av: []int64{1, 1 << 60}, WC: []int64{1 << 61, 1<<63 - 1}, Deadline: 1000},
			}}
		}, "representable time"},
	}
	for _, c := range cases {
		spec := validSpec()
		c.mutate(&spec)
		_, err := Compile(spec)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCompileDefaultsRhoToOne(t *testing.T) {
	spec := validSpec()
	spec.Rho = nil
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.RelaxTables().Rho(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("default rho = %v", got)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded managers must decide identically to the originals.
	sys := b.System()
	rng := rand.New(rand.NewSource(1))
	m1, m2 := b.Relaxed(), loaded.Relaxed()
	s1, s2 := b.Symbolic(), loaded.Symbolic()
	for trial := 0; trial < 300; trial++ {
		i := rng.Intn(sys.NumActions())
		tm := core.Time(rng.Int63n(int64(sys.LastDeadline() * 2)))
		if d1, d2 := m1.Decide(i, tm), m2.Decide(i, tm); d1 != d2 {
			t.Fatalf("relaxed decisions diverge at (%d, %v): %+v vs %+v", i, tm, d1, d2)
		}
		if d1, d2 := s1.Decide(i, tm), s2.Decide(i, tm); d1 != d2 {
			t.Fatalf("symbolic decisions diverge at (%d, %v)", i, tm)
		}
	}
}

// TestLoadRecompilesIdenticalTables: for the bundles the benchmark
// workloads compile (serve-checkpoint's two, cluster-mix's three) and
// for the paper encoder, the tables Load compiles equal the written
// bundle's entry for entry, and the reloaded bundle hashes the same.
func TestLoadRecompilesIdenticalTables(t *testing.T) {
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	var specs []Spec
	for _, name := range []string{"sdr-pipeline", "audio-encoder"} {
		specs = append(specs, SpecFromSystem(name, cat[name], []int{1, 5, 10, 25}))
	}
	for _, name := range []string{"audio-encoder", "sdr-pipeline", "video-decoder"} {
		specs = append(specs, SpecFromSystem(name, cat[name], nil))
	}
	specs = append(specs, SpecFromSystem("paper-encoder", profiler.IPodSystem(), []int{1, 10, 20, 30, 40, 50}))
	for _, spec := range specs {
		b, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		sys := b.System()
		for q := core.Level(0); q <= sys.QMax(); q++ {
			for i := 0; i <= sys.NumActions(); i++ {
				if got, want := loaded.Tables().TD(i, q), b.Tables().TD(i, q); got != want {
					t.Fatalf("%s: tD(%d, %v) = %v, want %v", spec.Name, i, q, got, want)
				}
			}
			for ri := range b.RelaxTables().Rho() {
				for i := 0; i < sys.NumActions(); i++ {
					glo, ghi := loaded.RelaxTables().Interval(i, q, ri)
					wlo, whi := b.RelaxTables().Interval(i, q, ri)
					if glo != wlo || ghi != whi {
						t.Fatalf("%s: relaxation interval (%d, %v, %d) differs", spec.Name, i, q, ri)
					}
				}
			}
		}
		if !reflect.DeepEqual(loaded.RelaxTables().Rho(), b.RelaxTables().Rho()) {
			t.Fatalf("%s: rho %v, want %v", spec.Name, loaded.RelaxTables().Rho(), b.RelaxTables().Rho())
		}
		h1, err1 := b.Hash()
		h2, err2 := loaded.Hash()
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("%s: hash %016x (%v) after reload, %016x (%v) before", spec.Name, h2, err2, h1, err1)
		}
	}
}

// TestBundleHashStableAcrossReload: the hash is a pure function of the
// serialized form — identical across reloads (so a hot swap to a
// reloaded identical bundle is recognisable as a no-op) and different
// for a different spec.
func TestBundleHashStableAcrossReload(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := loaded.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("reloaded bundle hashes %016x, original %016x", h2, h1)
	}
	other := validSpec()
	other.Actions[0].Av[1]++
	ob, err := Compile(other)
	if err != nil {
		t.Fatal(err)
	}
	h3, err := ob.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct bundles collided")
	}
}

// TestReloadedBundleSwapIsNoOp: the hot-swap property at the stream
// level. A stream bound against a reloaded copy of the same bundle
// produces a byte-identical trace to one bound against the original —
// so a serving daemon swapping in an identical bundle changes nothing
// for streams admitted after the swap, and in-flight streams (which
// keep their old manager pointer) are untouched by construction.
func TestReloadedBundleSwapIsNoOp(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	run := func(bb *Bundle) *sim.Trace {
		return (&sim.Runner{Sys: bb.System(), Mgr: bb.Relaxed(),
			Exec:     sim.Content{Sys: bb.System(), NoiseAmp: 0.4, Seed: 99},
			Overhead: sim.IPodOverhead, Cycles: 6}).MustRun()
	}
	want, got := run(b), run(loaded)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stream under the reloaded bundle diverged from the original")
	}
}

// TestLoadErrorsNameSectionAndOffset: corrupt bundles must diagnose to
// a section and a byte offset, and truncation must say so.
func TestLoadErrorsNameSectionAndOffset(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.String()

	_, err = Load(strings.NewReader(strings.Replace(whole, `"spec"`, `"spec!`, 1)))
	if err == nil || !strings.Contains(err.Error(), "byte offset") || !strings.Contains(err.Error(), "bundle envelope") {
		t.Fatalf("syntax error lacks section+offset: %v", err)
	}
	_, err = Load(strings.NewReader(strings.Replace(whole, `"levels":4`, `"levels":"four"`, 1)))
	if err == nil || !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("type error lacks offset: %v", err)
	}
	_, err = Load(strings.NewReader(whole[:len(whole)/2]))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation not named: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"spec":{"levels":0},"tables":{},"relax":{}}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestSpecFromSystemRoundTrip(t *testing.T) {
	// profiler system → spec → compile → identical decisions.
	sys := profiler.IPodSystem()
	spec := SpecFromSystem("ipod-encoder", sys, []int{1, 10, 20})
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b.System().NumActions() != sys.NumActions() {
		t.Fatal("action count changed")
	}
	orig := core.NewNumericManager(sys)
	comp := b.Numeric()
	for _, i := range []int{0, 100, 594, 1188} {
		for _, tm := range []core.Time{0, 300 * core.Millisecond, core.Second} {
			if orig.Decide(i, tm).Q != comp.Decide(i, tm).Q {
				t.Fatalf("decision changed at (%d, %v)", i, tm)
			}
		}
	}
}

func TestCompiledControllerRunsSafely(t *testing.T) {
	b, err := Compile(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	trc := (&sim.Runner{Sys: b.System(), Mgr: b.Relaxed(),
		Exec: sim.WorstCase{Sys: b.System()}, Overhead: sim.FreeOverhead, Cycles: 3}).MustRun()
	if trc.Misses != 0 {
		t.Fatalf("compiled controller missed %d deadlines", trc.Misses)
	}
}

// TestLoadRejectsInflatedTables keeps the two ways a bundle could carry
// tables that void the guarantee. A v1 file carried its tables, and a
// loader that trusted them accepted one with 2 ms added to every finite
// tD entry and relaxation upper bound; it must now fail on its version.
// A v2 file whose deadline was raised after compiling must fail on the
// digest, since its spec no longer compiles to the recorded tables.
func TestLoadRejectsInflatedTables(t *testing.T) {
	spec := validSpec()
	b, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("inflated v1 tables", func(t *testing.T) {
		_, err := Load(bytes.NewReader(inflatedV1Bundle(t, b)))
		if err == nil || !strings.Contains(err.Error(), "format v1") || !strings.Contains(err.Error(), "qmcompile") {
			t.Fatalf("inflated v1 bundle: %v", err)
		}
	})
	t.Run("v2 deadline raised after compiling", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		last := spec.Actions[len(spec.Actions)-1].Deadline
		raised := strings.Replace(buf.String(), fmt.Sprintf(`"deadline":%d`, last),
			fmt.Sprintf(`"deadline":%d`, last+int64(2*core.Millisecond)), 1)
		if raised == buf.String() {
			t.Fatal("deadline not found in the written bundle")
		}
		_, err := Load(strings.NewReader(raised))
		if err == nil || !strings.Contains(err.Error(), "digest") {
			t.Fatalf("v2 bundle with a raised deadline: %v", err)
		}
	})
}

// TestLoadRejectsHostileRho: Load compiles what it reads, so a small
// file must not be able to ask for huge tables. The ~77 KB hostile-ρ
// file fails on its step count before any relaxation row is allocated.
func TestLoadRejectsHostileRho(t *testing.T) {
	data := hostileRhoBundle(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "2000 steps, limit is 32") {
		t.Fatalf("hostile rho: %v", err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > 4<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(data), got)
	}
	t.Logf("rejecting a %d-byte file allocated %d bytes", len(data), got)
}
