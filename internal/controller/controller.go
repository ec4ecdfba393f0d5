// Package controller is the reproduction of the paper's Figure 1 tool
// flow: a "compiler" that takes the application description (actions,
// timing functions Cav/Cwc, deadline function D) plus the controller
// parameters (relaxation set ρ), validates the quality-management
// problem, pre-computes the speed-diagram tables, and packages
// everything into one self-contained **Bundle** — the moral equivalent
// of the binary the BIP/THINK chain loaded onto the iPod. The tables are
// a pure function of the application description, so a bundle file is
// that description plus a digest of the tables compiled from it;
// loading one compiles it again and checks the digest. A bundle can be
// saved, shipped, reloaded, and instantiated into any of the three
// Quality Managers without access to the original timing sources.
package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/core"
	"repro/internal/regions"
)

// Spec is the compiler input: a full description of the application and
// the controller parameters.
type Spec struct {
	// Name identifies the application (diagnostics only).
	Name string `json:"name"`
	// Actions of one cycle, in scheduled order.
	Actions []ActionSpec `json:"actions"`
	// Levels is the quality level count |Q|.
	Levels int `json:"levels"`
	// Rho is the control relaxation set; empty means {1} (no
	// multi-step relaxation).
	Rho []int `json:"rho,omitempty"`
}

// ActionSpec describes one action: per-level timing rows and an optional
// deadline (0 = none, matching the JSON-friendly convention).
type ActionSpec struct {
	Name     string  `json:"name"`
	Av       []int64 `json:"av"` // ns per level
	WC       []int64 `json:"wc"` // ns per level
	Deadline int64   `json:"deadline,omitempty"`
}

// SpecFromSystem converts an existing parameterized system into a Spec
// (e.g. to compile a bundle from profiler output).
func SpecFromSystem(name string, sys *core.System, rho []int) Spec {
	spec := Spec{Name: name, Levels: sys.NumLevels(), Rho: append([]int(nil), rho...)}
	for i := 0; i < sys.NumActions(); i++ {
		a := sys.Action(i)
		as := ActionSpec{
			Name: a.Name,
			Av:   make([]int64, sys.NumLevels()),
			WC:   make([]int64, sys.NumLevels()),
		}
		for q := 0; q < sys.NumLevels(); q++ {
			as.Av[q] = int64(sys.Av(i, core.Level(q)))
			as.WC[q] = int64(sys.WC(i, core.Level(q)))
		}
		if a.HasDeadline() {
			as.Deadline = int64(a.Deadline)
		}
		spec.Actions = append(spec.Actions, as)
	}
	return spec
}

// Bundle is the compiled controller: the validated system plus the
// pre-computed symbolic tables.
type Bundle struct {
	spec  Spec
	sys   *core.System
	tab   *regions.TDTable
	relax *regions.RelaxTables
}

// Compile validates the spec (Definition 1 monotonicity, Cav ≤ Cwc,
// qmin-feasibility — the conditions under which the mixed policy is
// safe) and pre-computes the tables.
func Compile(spec Spec) (*Bundle, error) {
	sys, err := buildSystem(spec)
	if err != nil {
		return nil, err
	}
	rho := spec.Rho
	if len(rho) == 0 {
		rho = []int{1}
	}
	tab := regions.BuildTDTable(sys)
	relax, err := regions.BuildRelaxTables(tab, rho)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return &Bundle{spec: spec, sys: sys, tab: tab, relax: relax}, nil
}

// buildSystem validates the spec into a parameterized system (no table
// construction).
func buildSystem(spec Spec) (*core.System, error) {
	if len(spec.Actions) == 0 {
		return nil, errors.New("controller: no actions")
	}
	if spec.Levels < 2 {
		return nil, fmt.Errorf("controller: need ≥2 quality levels, got %d", spec.Levels)
	}
	// Check every row before allocating, so the table is never larger
	// than the rows the spec actually holds. The worst-case cycle at the
	// highest level bounds every prefix sum the tables and the executor
	// form (Cav ≤ Cwc and both rise with the level, which NewSystem
	// checks), so keeping it below TimeInf keeps that arithmetic exact.
	cycle := int64(0)
	for i, a := range spec.Actions {
		if len(a.Av) != spec.Levels || len(a.WC) != spec.Levels {
			return nil, fmt.Errorf("controller: action %d (%s): timing rows must have %d entries", i, a.Name, spec.Levels)
		}
		if wc := a.WC[spec.Levels-1]; wc > 0 {
			cycle += min(wc, int64(core.TimeInf)-cycle)
		}
	}
	if cycle >= int64(core.TimeInf) {
		return nil, fmt.Errorf("controller: worst-case cycle at the highest level reaches %v, the limit of representable time", core.TimeInf)
	}
	tt := core.NewTimingTable(len(spec.Actions), spec.Levels)
	actions := make([]core.Action, len(spec.Actions))
	for i, a := range spec.Actions {
		for q := 0; q < spec.Levels; q++ {
			tt.Set(i, core.Level(q), core.Time(a.Av[q]), core.Time(a.WC[q]))
		}
		d := core.TimeInf
		if a.Deadline > 0 {
			d = core.Time(a.Deadline)
		}
		actions[i] = core.Action{Name: a.Name, Deadline: d}
	}
	sys, err := core.NewSystem(actions, tt)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	// Cycles run back to back, one period (the last deadline) apart.
	// Actions after the last deadline are unconstrained, so they could
	// run the cycle past the next one's start and make it miss.
	if last := len(actions) - 1; !actions[last].HasDeadline() {
		return nil, fmt.Errorf("controller: action %d (%s): the last action of a cycle must carry a deadline", last, actions[last].Name)
	}
	if err := sys.Feasible(); err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	return sys, nil
}

// Spec returns the bundle's originating spec.
func (b *Bundle) Spec() Spec { return b.spec }

// System returns the validated parameterized system.
func (b *Bundle) System() *core.System { return b.sys }

// Tables returns the quality-region table.
func (b *Bundle) Tables() *regions.TDTable { return b.tab }

// RelaxTables returns the control-relaxation tables.
func (b *Bundle) RelaxTables() *regions.RelaxTables { return b.relax }

// Numeric instantiates the on-line manager (kept mostly for comparison
// runs; the whole point of the bundle is to avoid it).
func (b *Bundle) Numeric() core.Manager { return core.NewNumericManager(b.sys) }

// Symbolic instantiates the quality-region manager.
func (b *Bundle) Symbolic() core.Manager { return regions.NewSymbolicManager(b.tab) }

// Relaxed instantiates the control-relaxation manager.
func (b *Bundle) Relaxed() core.Manager { return regions.NewRelaxedManager(b.relax) }

// Hash returns a stable FNV-1a identity of the bundle's serialized
// form. Two bundles hash equal exactly when WriteTo emits identical
// bytes — the identity the serving layer uses to name bundles on disk,
// to record which bundle each stream ran under in a checkpoint, and to
// recognise a hot swap to an identical bundle as a no-op.
func (b *Bundle) Hash() (uint64, error) {
	h := fnv.New64a()
	if _, err := b.WriteTo(h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// formatVersion is the bundle file format WriteTo writes and Load
// reads. Format 1 carried the tables themselves and had no format field;
// format 2 carries the spec and the digest of the tables compiled from it.
const formatVersion = 2

// bundleJSON is the wire format.
type bundleJSON struct {
	Format int    `json:"format"`
	Spec   Spec   `json:"spec"`
	Digest string `json:"digest"` // RelaxTables.Digest of the compiled tables, hex
}

// digest is the hex form of the compiled tables' digest.
func (b *Bundle) digest() string { return fmt.Sprintf("%016x", b.relax.Digest()) }

// WriteTo serialises the bundle (spec + tables digest) as JSON.
func (b *Bundle) WriteTo(w io.Writer) (int64, error) {
	j := bundleJSON{Format: formatVersion, Spec: b.spec, Digest: b.digest()}
	cw := &countWriter{w: w}
	err := json.NewEncoder(cw).Encode(j)
	return cw.n, err
}

// Load reads a bundle written by WriteTo and compiles its spec, so the
// loaded tables are always the ones Compile builds; then it checks them
// against the recorded digest, so a compiler change that alters the
// tables fails here rather than serving other decisions under the same
// bundle. A file of any other format version fails with an error naming
// that version; such bundles must be recompiled with qmcompile. A
// corrupt or truncated bundle is always an error — naming the byte
// offset for parse failures and the offending action for spec failures
// — never a panic (property-tested by FuzzLoadBundle): a serving daemon
// hot-swapping bundles must survive any file it is pointed at.
func Load(r io.Reader) (*Bundle, error) {
	j := bundleJSON{Format: 1} // format 1 files carry no format field
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		return nil, loadErr(err)
	}
	if j.Format != formatVersion {
		return nil, fmt.Errorf("controller: bundle format v%d is not supported (this build reads v%d); recompile the bundle with qmcompile", j.Format, formatVersion)
	}
	b, err := Compile(j.Spec)
	if err != nil {
		return nil, err
	}
	if got := b.digest(); got != j.Digest {
		return nil, fmt.Errorf("controller: tables digest %s does not match the recorded %q; recompile the bundle with qmcompile", got, j.Digest)
	}
	return b, nil
}

// loadErr wraps a decode failure of the bundle envelope with, when the
// JSON decoder reports one, the byte offset where parsing derailed — so
// "bundle won't load" diagnoses to a place, not just a feeling.
func loadErr(err error) error {
	const section = "bundle envelope"
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("controller: %s: syntax error at byte offset %d: %w", section, syn.Offset, err)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		where := typ.Field
		if where == "" {
			where = "value"
		}
		return fmt.Errorf("controller: %s: %s cannot hold a JSON %s (byte offset %d): %w", section, where, typ.Value, typ.Offset, err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("controller: %s: truncated: %w", section, err)
	}
	return fmt.Errorf("controller: %s: %w", section, err)
}

// countWriter counts the bytes WriteTo emits.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
