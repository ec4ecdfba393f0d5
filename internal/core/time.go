// Package core implements the formal model of Combaz et al., "Using Speed
// Diagrams for Symbolic Quality Management" (IPPS 2007): parameterized
// systems (sequences of atomic actions with quality-dependent execution
// times), deadline functions, the safe and mixed quality-management
// policies, and the numeric Quality Manager that evaluates the policy
// on line before every action.
//
// Conventions (see DESIGN.md §6): actions are indexed 0..n-1 and decision
// states 0..n-1, where state i is the instant just before action i runs.
// The paper writes "at state (s_i, t_i) the Quality Manager picks q_{i+1}
// for action a_{i+1}"; after re-indexing, the manager observed at state i
// picks the quality for action i.
package core

import (
	"fmt"
	"math"
	"time"
)

// Time is a point or span on the platform clock, in integer nanoseconds.
// All policy tables are integer-valued, matching the paper's symbolic
// tables ("a set of ... integers", §4.1).
type Time int64

// TimeInf represents an absent deadline or an unconstrained table entry.
// It is far below the int64 overflow boundary so that bounded sums of
// ordinary times never collide with it.
const TimeInf Time = math.MaxInt64 / 4

// TimeNegInf is the lower sentinel used for open-ended region bounds
// (the quality-qmax regions of Propositions 2 and 3 extend to -infinity).
const TimeNegInf Time = -TimeInf

// Common spans.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// FromDuration converts a time.Duration to a core.Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Duration converts t to a time.Duration. TimeInf saturates to the
// maximum duration.
func (t Time) Duration() time.Duration {
	if t >= TimeInf {
		return time.Duration(math.MaxInt64)
	}
	if t <= TimeNegInf {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(t)
}

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// IsInf reports whether t is one of the two infinity sentinels.
func (t Time) IsInf() bool { return t >= TimeInf || t <= TimeNegInf }

// String renders t in a human unit, or "inf"/"-inf" for the sentinels.
func (t Time) String() string {
	switch {
	case t >= TimeInf:
		return "inf"
	case t <= TimeNegInf:
		return "-inf"
	default:
		return time.Duration(t).String()
	}
}

// AddSat adds two times, saturating at the infinity sentinels so that
// table arithmetic with TimeInf behaves like extended-real arithmetic.
func AddSat(a, b Time) Time {
	if a >= TimeInf || b >= TimeInf {
		if a <= TimeNegInf || b <= TimeNegInf {
			panic("core: inf + -inf is undefined")
		}
		return TimeInf
	}
	if a <= TimeNegInf || b <= TimeNegInf {
		return TimeNegInf
	}
	s := a + b
	if s >= TimeInf {
		return TimeInf
	}
	if s <= TimeNegInf {
		return TimeNegInf
	}
	return s
}

// subSat subtracts b from a with the same saturation rules as AddSat.
func subSat(a, b Time) Time { return AddSat(a, -b) }

// MinTime returns the smaller of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// MaxTime returns the larger of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Level is an integer quality level. The set of levels of a system is
// always the contiguous range 0..NumLevels()-1; level 0 is qmin and the
// highest level is qmax. Execution-time functions are non-decreasing in
// the level (Definition 1 of the paper).
type Level int

// Clamp restricts l to the range [0, nq-1].
func (l Level) Clamp(nq int) Level {
	if l < 0 {
		return 0
	}
	if int(l) >= nq {
		return Level(nq - 1)
	}
	return l
}

func (l Level) String() string { return fmt.Sprintf("q%d", int(l)) }
