package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/regions"
	"repro/internal/sim"
)

// hetStreams builds a fleet with deliberately unequal stream lengths so
// the workers' slot ranges take skewed times to drain and the steal path
// actually fires: the longest stream is ~an order of magnitude longer
// than the shortest.
func hetStreams(t *testing.T, n int, baseSeed uint64) []Stream {
	t.Helper()
	sys := core.RandomSystem(rand.New(rand.NewSource(21)), core.RandomSystemConfig{Actions: 20, Levels: 4, DeadlineEvery: 3})
	tab := regions.BuildTDTable(sys)
	rt := regions.MustBuildRelaxTables(tab, []int{1, 2, 5})
	mgr := regions.NewRelaxedManager(rt) // shared: stateless by design
	streams := make([]Stream, n)
	for k := range streams {
		streams[k] = Stream{
			Name: fmt.Sprintf("het-%03d", k),
			Runner: sim.Runner{
				Sys:    sys,
				Mgr:    mgr,
				Exec:   sim.Content{Sys: sys, NoiseAmp: 0.4, Seed: DeriveSeed(baseSeed, k)},
				Cycles: 2 + 11*(k%13),
			},
		}
	}
	return streams
}

// TestQuickFleetInvariantAcrossWorkersAndBatches is the closed fleet's
// acceptance property: for fuzzed fleets and arbitrary (workers,
// BatchCycles) settings — including batch 1, batches straddling stream
// ends and batches far beyond any stream — every trace equals the
// serial runner's for the same stream, byte for byte. At workers > 1 it
// exercises the open pool's contiguous-range claim and its steal sweep
// over a slot space that grows chunk by chunk while the fleet is
// admitted; at workers = 1 the inline executor.
func TestQuickFleetInvariantAcrossWorkersAndBatches(t *testing.T) {
	f := func(seed int64, nRaw, wRaw, bRaw uint8) bool {
		n := int(nRaw%13) + 1
		workers := int(wRaw%9) + 1
		batch := []int{1, 2, 3, 7, 32, 1 << 20}[int(bRaw)%6]
		streams := hetStreams(t, n, uint64(seed))
		res, err := recorded(RunStats, Config{Streams: streams, Workers: workers, BatchCycles: batch})
		if err != nil {
			t.Log(err)
			return false
		}
		if err := res.Err(); err != nil {
			t.Log(err)
			return false
		}
		for k := range streams {
			serial, err := streams[k].Runner.Run()
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(res.Streams[k].Trace, serial) {
				t.Logf("n=%d workers=%d batch=%d: stream %d diverges from serial", n, workers, batch, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetWorkStealing oversubscribes the open pool with heterogeneous
// stream lengths (streams ≫ workers, range drain times skewed ~10×) so
// a worker whose own slot range is dry must steal ready slots from the
// others' ranges mid-run; under -race this is the claim/steal hand-off
// correctness check. Batch 1 maximises the number of claim/release
// transitions.
func TestFleetWorkStealing(t *testing.T) {
	streams := hetStreams(t, 160, 7)
	for _, batch := range []int{1, 3, DefaultBatchCycles} {
		res, err := RunStats(Config{Streams: streams, Workers: 4, BatchCycles: batch})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		for k := range streams {
			want := streams[k].Runner.Cycles
			tr := res.Streams[k].Trace
			if tr.Cycles != want {
				t.Fatalf("batch=%d: stream %d ran %d cycles, want %d", batch, k, tr.Cycles, want)
			}
			if res.Streams[k].Stats.Records != want*streams[k].Runner.Sys.NumActions() {
				t.Fatalf("batch=%d: stream %d observed wrong record count", batch, k)
			}
		}
	}
}

// TestStreamTableSoALayout: the mutable state the workers sweep must
// actually live in an arena chunk's contiguous slabs — adjacent slots'
// states and sinks at fixed strides, histogram windows partitioning one
// backing slab — or the cache-affinity argument is fiction.
func TestStreamTableSoALayout(t *testing.T) {
	const n = 8
	streams := hetStreams(t, n, 3)
	levels := streams[0].Runner.Sys.NumLevels()
	a := openArena{maxLevels: levels}
	a.ensurePopulation(n)
	slots := make([]int32, n)
	for k := range streams {
		slots[k] = a.bind(&streams[k], k)
	}
	if len(a.chunks) != 1 {
		t.Fatalf("%d streams bound into %d chunks, want one", n, len(a.chunks))
	}
	c := a.chunks[0]
	if len(c.streams) != n {
		t.Fatalf("chunk has %d slots, want %d", len(c.streams), n)
	}
	for i := 1; i < n; i++ {
		if &c.states[i] != &c.states[0:n][i] || &c.sinks[i] != &c.sinks[0:n][i] {
			t.Fatal("slabs must be single allocations")
		}
	}
	if len(c.hist) != n*levels {
		t.Fatalf("hist slab has %d cells, want %d", len(c.hist), n*levels)
	}
	for k, slot := range slots {
		if a.slotTbl[slot] != c {
			t.Fatalf("stream %d bound outside the chunk", k)
		}
		if err := a.err(slot); err != nil {
			t.Fatal(err)
		}
		for !advance(&c.streams[a.slotIdx[slot]], 4) {
		}
	}
	for i := 0; i < n; i++ {
		total := 0
		for _, cell := range c.hist[i*levels : (i+1)*levels] {
			total += cell
		}
		if want := c.sinks[i].Records; total != want || want == 0 {
			t.Fatalf("slot %d: slab histogram holds %d records, sink says %d", i, total, want)
		}
	}
}

// TestRunStatsExportTee: Export sinks observe exactly the stream's
// record sequence alongside the StatsSink, and a nil return skips the
// stream.
func TestRunStatsExportTee(t *testing.T) {
	streams := hetStreams(t, 3, 9)
	got := make([]*sim.TraceSink, len(streams))
	res, err := RunStats(Config{
		Streams: streams,
		Workers: 2,
		Export: func(k int, name string) sim.Sink {
			if k == 1 {
				return nil // opting out must be allowed
			}
			got[k] = &sim.TraceSink{}
			return got[k]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	for k := range streams {
		serial, err := streams[k].Runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 {
			if got[k] != nil {
				t.Fatal("skipped stream must have no export sink")
			}
			continue
		}
		if !reflect.DeepEqual(got[k].Records, serial.Records) {
			t.Fatalf("stream %d: exported records diverge from serial trace", k)
		}
		if res.Streams[k].Stats.Records != len(serial.Records) {
			t.Fatalf("stream %d: stats sink missed records under tee", k)
		}
	}
}

// TestDeriveSeedFleetScale: per-stream seeds stay distinct across a
// 100k-stream fleet and match frozen golden values — the derivation is
// part of the reproducibility contract, so a silent change to the mix
// would invalidate every recorded result.
func TestDeriveSeedFleetScale(t *testing.T) {
	seen := make(map[uint64]int, 100000)
	for k := 0; k < 100000; k++ {
		s := DeriveSeed(12345, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: streams %d and %d both get %#x", prev, k, s)
		}
		seen[s] = k
	}
	golden := []struct {
		base uint64
		k    int
		want uint64
	}{
		{0, 0, 0xE220A8397B1DCDAF},
		{1, 0, 0x910A2DEC89025CC1},
		{1, 1, 0xBEEB8DA1658EEC67},
		{1, 2, 0xF893A2EEFB32555E},
		{42, 7, 0xCCF635EE9E9E2FA4},
		{1 << 63, 99999, 0xEDFD6323B5963102},
	}
	for _, g := range golden {
		if got := DeriveSeed(g.base, g.k); got != g.want {
			t.Fatalf("DeriveSeed(%d, %d) = %#x, want %#x (derivation changed!)", g.base, g.k, got, g.want)
		}
	}
}
