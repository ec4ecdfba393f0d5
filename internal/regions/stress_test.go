package regions

import (
	"testing"

	"repro/internal/core"
)

// TestLargeSystemScaling: the table builders and managers must stay
// practical on systems an order of magnitude beyond the paper's
// (long-GOP encoders, minute-scale pipelines).
func TestLargeSystemScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("large-system stress test")
	}
	const n, levels = 50000, 10
	tt := core.NewTimingTable(n, levels)
	for i := 0; i < n; i++ {
		for q := 0; q < levels; q++ {
			av := core.Time(50+10*q+i%7) * core.Microsecond
			tt.Set(i, core.Level(q), av, av*3/2)
		}
	}
	actions := make([]core.Action, n)
	for i := range actions {
		actions[i] = core.Action{Deadline: core.TimeInf}
		if (i+1)%10000 == 0 {
			actions[i].Deadline = core.Time(i+1) * 175 * core.Microsecond
		}
	}
	sys := core.MustNewSystem(actions, tt)
	if err := sys.Feasible(); err != nil {
		t.Fatal(err)
	}
	tab := BuildTDTable(sys)
	if err := tab.validate(); err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRelaxTables(tab, []int{1, 10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	m := NewRelaxedManager(rt)
	// Sweep a controlled pass over the whole system.
	tm := core.Time(0)
	pending, decisions := 0, 0
	var cur core.Level
	for i := 0; i < n; i++ {
		if pending == 0 {
			d := m.Decide(i, tm)
			cur, pending = d.Q, d.Steps
			decisions++
		}
		tm += sys.Av(i, cur)
		pending--
	}
	if decisions >= n/5 {
		t.Fatalf("relaxation ineffective at scale: %d decisions for %d actions", decisions, n)
	}
	// Spot-check equivalence against the reference builder on a slice
	// of states (full reference is O(n²) — too slow here).
	for _, i := range []int{0, 1, 9999, 25000, n - 1, n} {
		for q := core.Level(0); q < levels; q += 3 {
			if tab.TD(i, q) != sys.TD(i, q) {
				t.Fatalf("fast table diverges at i=%d q=%v", i, q)
			}
		}
	}
}
