package checkpoint

import (
	"fmt"

	"repro/internal/sim"
)

// faultPlan is the deterministic fault-injection harness: a seeded
// splitmix64 stream from which every injected fault — the kill
// boundary, the truncation point, the flipped bit — is derived, so a
// failing crash-recovery test names a seed that reproduces the exact
// fault sequence. No process-global or wall-clock randomness is
// involved, keeping the harness inside the same RNG discipline detlint
// enforces on the engine.
type faultPlan struct {
	state uint64
}

// newFaultPlan seeds a plan. Equal seeds yield equal fault sequences.
func newFaultPlan(seed uint64) *faultPlan {
	return &faultPlan{state: sim.Mix64(seed ^ 0xC4CEB9FE1A85EC53)}
}

// splitmixNext advances the plan's private splitmix64 stream.
func (p *faultPlan) splitmixNext() uint64 {
	p.state += 0x9E3779B97F4A7C15
	return sim.Mix64(p.state)
}

// KillEvents draws the checkpoint boundary to crash at: an event count
// in [1, max] (max clamped up to 1).
func (p *faultPlan) KillEvents(max int64) int64 {
	if max < 1 {
		max = 1
	}
	return 1 + int64(p.splitmixNext()%uint64(max))
}

// Truncate simulates a torn write: a copy of b cut to a strictly
// shorter prefix (possibly empty). b must be non-empty.
func (p *faultPlan) Truncate(b []byte) []byte {
	if len(b) == 0 {
		panic("checkpoint: Truncate of an empty snapshot")
	}
	n := int(p.splitmixNext() % uint64(len(b)))
	return append([]byte(nil), b[:n]...)
}

// BitFlip simulates silent media corruption: a copy of b with one
// uniformly chosen bit inverted. b must be non-empty.
func (p *faultPlan) BitFlip(b []byte) []byte {
	if len(b) == 0 {
		panic("checkpoint: BitFlip of an empty snapshot")
	}
	out := append([]byte(nil), b...)
	bit := p.splitmixNext() % uint64(8*len(out))
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// errInjectedKill marks a deliberate crash: the checkpoint hook of a
// crash-recovery test returns it to abort the run at an exact event
// boundary, and the test recognises it as the simulated death rather
// than a real failure.
var errInjectedKill = fmt.Errorf("checkpoint: injected kill")
