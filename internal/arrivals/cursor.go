package arrivals

import (
	"fmt"

	"repro/internal/core"
)

// cursor adapts a Process to incremental, resumable consumption: a
// serving driver pulls arrival instants one at a time as it feeds
// streams, checkpoints only the count consumed, and after a crash
// re-materialises the process (Times is a pure function of the
// process's parameters) and seeks back to that count. The instants a
// resumed cursor yields are therefore byte-identical to the ones the
// uninterrupted cursor would have yielded — the arrival-side half of
// the crash-recovery guarantee.
type cursor struct {
	times []core.Time
	pos   int
}

// newCursor materialises the first n instants of p. n bounds the run's
// population, exactly as the batch entry points do.
func newCursor(p Process, n int) (*cursor, error) {
	times, err := p.Times(n)
	if err != nil {
		return nil, err
	}
	return &cursor{times: times}, nil
}

// newCursorFromTimes wraps an explicit schedule (e.g. one replayed
// from a recorded trace file). The instants must be non-decreasing and
// non-negative, the Process contract.
func newCursorFromTimes(times []core.Time) (*cursor, error) {
	for i, t := range times {
		if t < 0 || t.IsInf() {
			return nil, fmt.Errorf("arrivals: instant %d (%v) out of range", i, t)
		}
		if i > 0 && t < times[i-1] {
			return nil, fmt.Errorf("arrivals: instant %d (%v) precedes %v", i, t, times[i-1])
		}
	}
	return &cursor{times: times}, nil
}

// Next yields the next arrival instant; ok is false when the schedule
// is exhausted.
func (c *cursor) Next() (t core.Time, ok bool) {
	if c.pos >= len(c.times) {
		return 0, false
	}
	t = c.times[c.pos]
	c.pos++
	return t, true
}

// Peek reports the next instant without consuming it.
func (c *cursor) Peek() (t core.Time, ok bool) {
	if c.pos >= len(c.times) {
		return 0, false
	}
	return c.times[c.pos], true
}

// Pos returns the number of instants consumed so far — the single
// integer a checkpoint stores for the arrival side.
func (c *cursor) Pos() int { return c.pos }

// Remaining returns how many instants are left.
func (c *cursor) Remaining() int { return len(c.times) - c.pos }

// Seek positions the cursor so that exactly pos instants count as
// consumed — the restore of a checkpointed Pos.
func (c *cursor) Seek(pos int) error {
	if pos < 0 || pos > len(c.times) {
		return fmt.Errorf("arrivals: seek to %d outside the %d-instant schedule", pos, len(c.times))
	}
	c.pos = pos
	return nil
}
