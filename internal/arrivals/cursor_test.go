package arrivals

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestCursorResumeEquivalence: consuming k instants, "crashing" (only
// Pos survives), re-materialising the cursor from the same process and
// seeking to k yields exactly the instants the uninterrupted cursor
// yields — for every split point.
func TestCursorResumeEquivalence(t *testing.T) {
	p := Bursty{GapOn: 2 * core.Millisecond, MeanOn: 9 * core.Millisecond,
		MeanOff: 40 * core.Millisecond, Seed: 5}
	const n = 17
	whole, err := newCursor(p, n)
	if err != nil {
		t.Fatal(err)
	}
	var ref []core.Time
	for {
		v, ok := whole.Next()
		if !ok {
			break
		}
		ref = append(ref, v)
	}
	if len(ref) != n || whole.Remaining() != 0 {
		t.Fatalf("drained %d of %d instants", len(ref), n)
	}

	for cut := 0; cut <= n; cut++ {
		c1, _ := newCursor(p, n)
		for i := 0; i < cut; i++ {
			c1.Next()
		}
		saved := c1.Pos()

		c2, _ := newCursor(p, n) // the post-crash re-materialisation
		if err := c2.Seek(saved); err != nil {
			t.Fatal(err)
		}
		got := ref[:cut:cut]
		for {
			v, ok := c2.Next()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("cut %d: resumed instants diverge", cut)
		}
	}
}

func TestCursorValidation(t *testing.T) {
	if _, err := newCursorFromTimes([]core.Time{3, 2}); err == nil {
		t.Fatal("decreasing schedule accepted")
	}
	if _, err := newCursorFromTimes([]core.Time{-1}); err == nil {
		t.Fatal("negative instant accepted")
	}
	if _, err := newCursorFromTimes([]core.Time{core.TimeInf}); err == nil {
		t.Fatal("infinite instant accepted")
	}
	c, err := newCursorFromTimes([]core.Time{1, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seek(4); err == nil {
		t.Fatal("seek past the schedule accepted")
	}
	if err := c.Seek(-1); err == nil {
		t.Fatal("negative seek accepted")
	}
	if v, ok := c.Peek(); !ok || v != 1 {
		t.Fatal("peek broken")
	}
	if c.Pos() != 0 {
		t.Fatal("peek consumed")
	}
}
