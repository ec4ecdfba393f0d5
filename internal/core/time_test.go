package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
	if Millisecond != 1e6 || Microsecond != 1e3 || Nanosecond != 1 {
		t.Fatal("unit constants inconsistent")
	}
}

func TestTimeConversions(t *testing.T) {
	d := 1500 * time.Millisecond
	ct := FromDuration(d)
	if ct != 1500*Millisecond {
		t.Fatalf("FromDuration = %v", ct)
	}
	if ct.Duration() != d {
		t.Fatalf("Duration roundtrip = %v", ct.Duration())
	}
	if got := ct.Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := ct.Millis(); got != 1500 {
		t.Fatalf("Millis = %v", got)
	}
	if got := ct.Micros(); got != 1.5e6 {
		t.Fatalf("Micros = %v", got)
	}
}

func TestTimeInfSentinels(t *testing.T) {
	if !TimeInf.IsInf() || !TimeNegInf.IsInf() {
		t.Fatal("sentinels must report IsInf")
	}
	if Time(0).IsInf() || (12 * Second).IsInf() {
		t.Fatal("finite values must not report IsInf")
	}
	if TimeInf.String() != "inf" || TimeNegInf.String() != "-inf" {
		t.Fatalf("sentinel strings: %q %q", TimeInf.String(), TimeNegInf.String())
	}
	if TimeInf.Duration() != time.Duration(math.MaxInt64) {
		t.Fatal("TimeInf must saturate Duration")
	}
	if TimeNegInf.Duration() != time.Duration(math.MinInt64) {
		t.Fatal("TimeNegInf must saturate Duration")
	}
}

func TestAddSat(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{1, 2, 3},
		{TimeInf, -5, TimeInf},
		{TimeNegInf, 5, TimeNegInf},
		{TimeInf, TimeInf, TimeInf},
		{TimeNegInf, TimeNegInf, TimeNegInf},
		{TimeInf - 1, TimeInf - 1, TimeInf},
		{TimeNegInf + 1, TimeNegInf + 1, TimeNegInf},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAddSatUndefined(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inf + -inf must panic")
		}
	}()
	AddSat(TimeInf, TimeNegInf)
}

func TestSubSat(t *testing.T) {
	if got := subSat(5, 3); got != 2 {
		t.Fatalf("subSat = %v", got)
	}
	if got := subSat(TimeNegInf, 100); got != TimeNegInf {
		t.Fatalf("subSat(-inf, x) = %v", got)
	}
	if got := subSat(7, TimeNegInf); got != TimeInf {
		t.Fatalf("subSat(x, -inf) = %v", got)
	}
}

func TestAddSatCommutesAndBounded(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Time(a)*Microsecond, Time(b)*Microsecond
		s := AddSat(x, y)
		return s == AddSat(y, x) && s <= TimeInf && s >= TimeNegInf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(3, 5) != 3 || MinTime(5, 3) != 3 {
		t.Fatal("MinTime broken")
	}
	if MaxTime(3, 5) != 5 || MaxTime(5, 3) != 5 {
		t.Fatal("MaxTime broken")
	}
}

func TestLevelClamp(t *testing.T) {
	if Level(-3).Clamp(7) != 0 {
		t.Fatal("negative clamp")
	}
	if Level(99).Clamp(7) != 6 {
		t.Fatal("upper clamp")
	}
	if Level(4).Clamp(7) != 4 {
		t.Fatal("identity clamp")
	}
	if Level(4).String() != "q4" {
		t.Fatalf("Level string: %s", Level(4))
	}
}

func TestTimeString(t *testing.T) {
	if (1500 * Millisecond).String() != "1.5s" {
		t.Fatalf("String = %q", (1500 * Millisecond).String())
	}
}
