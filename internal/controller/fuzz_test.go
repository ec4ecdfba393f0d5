package controller

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// entriesPerByte bounds the compiled tables by the size of the file they
// were compiled from: a spec spends at least four bytes per timing entry
// and |ρ| is capped, so no accepted file may expand past this.
const entriesPerByte = 32

// checkGuarantee holds a compiled bundle to the paper's guarantee and to
// the size bound: three cycles at worst-case execution times with free
// overhead miss no deadline under either table-driven manager.
func checkGuarantee(t *testing.T, b *Bundle, size int) {
	t.Helper()
	if n := b.Tables().NumEntries() + b.RelaxTables().NumEntries(); n > entriesPerByte*size {
		t.Fatalf("a %d-byte input compiled to %d table entries", size, n)
	}
	sys := b.System()
	for _, m := range []core.Manager{b.Symbolic(), b.Relaxed()} {
		tr, err := (&sim.Runner{Sys: sys, Mgr: m, Exec: sim.WorstCase{Sys: sys},
			Overhead: sim.FreeOverhead, Cycles: 3, Sink: sim.NewStatsSink(sys.NumLevels())}).Run()
		if err != nil {
			t.Fatalf("%s: accepted bundle does not run: %v", m.Name(), err)
		}
		if tr.Misses != 0 {
			t.Fatalf("%s: accepted bundle missed %d deadlines in 3 worst-case cycles", m.Name(), tr.Misses)
		}
	}
}

// inflatedV1Bundle writes b in bundle format v1, which carried the tables
// themselves, with 2 ms added to every finite tD entry and every finite
// relaxation upper bound. A loader that trusted those tables served a
// manager that missed a deadline in every worst-case cycle.
func inflatedV1Bundle(t testing.TB, b *Bundle) []byte {
	t.Helper()
	const inflate = 2 * core.Millisecond
	bump := func(v core.Time) int64 {
		if v.IsInf() {
			return int64(v)
		}
		return int64(v + inflate)
	}
	sys, rt := b.System(), b.RelaxTables()
	n, nq := sys.NumActions(), sys.NumLevels()
	type tdJSON struct {
		Actions int       `json:"actions"`
		Levels  int       `json:"levels"`
		TD      [][]int64 `json:"td"`
	}
	type relaxJSON struct {
		Actions int         `json:"actions"`
		Levels  int         `json:"levels"`
		Rho     []int       `json:"rho"`
		Upper   [][][]int64 `json:"upper"`
		Lower   [][][]int64 `json:"lower"`
	}
	td := tdJSON{Actions: n, Levels: nq, TD: make([][]int64, nq)}
	relax := relaxJSON{Actions: n, Levels: nq, Rho: rt.Rho(), Upper: make([][][]int64, nq), Lower: make([][][]int64, nq)}
	for q := 0; q < nq; q++ {
		for i := 0; i <= n; i++ {
			td.TD[q] = append(td.TD[q], bump(b.Tables().TD(i, core.Level(q))))
		}
		relax.Upper[q] = make([][]int64, len(rt.Rho()))
		relax.Lower[q] = make([][]int64, len(rt.Rho()))
		for ri := range rt.Rho() {
			for i := 0; i < n; i++ {
				lo, hi := rt.Interval(i, core.Level(q), ri)
				relax.Upper[q][ri] = append(relax.Upper[q][ri], bump(hi))
				relax.Lower[q][ri] = append(relax.Lower[q][ri], int64(lo))
			}
		}
	}
	data, err := json.Marshal(struct {
		Spec   Spec      `json:"spec"`
		Tables tdJSON    `json:"tables"`
		Relax  relaxJSON `json:"relax"`
	}{b.Spec(), td, relax})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// hostileRhoBundle is a ~77 KB v2 file whose spec has 2,000 actions,
// 2 levels and ρ = {1..2000}: compiled uncapped, its relaxation tables
// alone would take 128 MB.
func hostileRhoBundle(t testing.TB) []byte {
	t.Helper()
	spec := Spec{Name: "hostile-rho", Levels: 2}
	for i := 0; i < 2000; i++ {
		spec.Actions = append(spec.Actions, ActionSpec{Av: []int64{1, 2}, WC: []int64{1, 2}})
		spec.Rho = append(spec.Rho, i+1)
	}
	spec.Actions[len(spec.Actions)-1].Deadline = 1_000_000
	data, err := json.Marshal(bundleJSON{Format: formatVersion, Spec: spec, Digest: "0000000000000000"})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzLoadBundle is the robustness contract of the bundle loader: for
// ANY byte string — torn downloads, truncated writes, bit rot, hostile
// input — Load either returns a usable bundle or an error; it never
// panics, and a bundle it does accept serialises again and keeps the
// paper's guarantee within the size bound (checkGuarantee). Load's
// tables are exactly Compile's, so the guarantee is also checked on every
// spec Compile accepts from the input whether or not its digest matches:
// otherwise the fuzzer would have to forge a digest to reach a new spec.
// The corpus seeds a valid bundle plus truncations and near-miss
// corruptions of it, an inflated v1 bundle and a hostile ρ set, so the
// fuzzer starts at the format's interesting edges.
func FuzzLoadBundle(f *testing.F) {
	b, err := Compile(validSpec())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	for _, cut := range []int{0, 1, len(whole) / 3, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	f.Add(bytes.Replace(whole, []byte(`"levels"`), []byte(`"levelz"`), 1))
	f.Add(bytes.Replace(whole, []byte(`:`), []byte(`:-`), 1))
	f.Add([]byte(`{"spec":{"levels":2,"actions":[{"av":[1,2],"wc":[1,2],"deadline":9}]},"tables":{},"relax":{}}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"format":2,"spec":{"levels":2,"actions":[{"av":[1,2],"wc":[1,2],"deadline":9}]},"digest":""}`))
	f.Add(inflatedV1Bundle(f, b))
	f.Add(hostileRhoBundle(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "controller:") {
				t.Fatalf("load error escaped the package's prefix: %v", err)
			}
		} else {
			if loaded.System() == nil || loaded.Tables() == nil || loaded.RelaxTables() == nil {
				t.Fatal("Load returned a hollow bundle without error")
			}
			if _, err := loaded.WriteTo(&bytes.Buffer{}); err != nil {
				t.Fatalf("accepted bundle does not re-serialise: %v", err)
			}
			checkGuarantee(t, loaded, len(data))
			return
		}
		var j bundleJSON
		if json.Unmarshal(data, &j) != nil {
			return
		}
		if compiled, err := Compile(j.Spec); err == nil {
			checkGuarantee(t, compiled, len(data))
		}
	})
}
