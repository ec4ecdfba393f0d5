package checkpoint

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// FuzzDecode feeds Decode arbitrary bytes, each input twice: raw, and
// as a payload wrapped in a valid header and CRC so the fuzzer reaches
// the payload decoder past the checksum. The seeds are one-record logs
// and multi-record logs a Store wrote from engine captures at several
// boundaries, whole, torn and bit-flipped. Decode must never panic,
// every error must carry the package prefix, and every accepted log
// must fold to a snapshot whose streams form one partition and which
// re-encodes, as one self-contained record, to a log that decodes to
// the same snapshot — which also checks, on every accepted input, that
// the sized encoder and the decoder agree on the format.
func FuzzDecode(f *testing.F) {
	for _, s := range []*Snapshot{
		{Meta: Meta{Fingerprint: "empty"}, Capture: &fleet.OpenCapture{}},
		goldenSnapshot(f),
		{Meta: Meta{Fingerprint: "mid", BundleHashes: []uint64{7}}, Capture: captureMidRun(f, testConfig(f, 12, 33), 3)},
	} {
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[headerSize:])
	}
	for _, every := range []int64{2, 5} {
		caps := captures(f, testConfig(f, 12, 33), every)
		_, ends, raw := saveAll(f, "log", caps[:min(len(caps), 6)])
		plan := newFaultPlan(uint64(every))
		middle := raw[ends[0]:ends[1]]
		f.Add(raw)
		f.Add(raw[:len(raw)-1])
		f.Add(append(raw[:ends[0]:ends[0]], append(plan.BitFlip(middle), raw[ends[1]:]...)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, wrap(data))
	})
}

func checkDecode(t *testing.T, in []byte) {
	s, err := Decode(bytes.NewReader(in))
	if err != nil {
		if !strings.HasPrefix(err.Error(), "checkpoint: ") {
			t.Fatalf("error without the package prefix: %v", err)
		}
		return
	}
	checkPartition(t, s.Capture)
	var out bytes.Buffer
	if err := Encode(&out, s); err != nil {
		t.Fatalf("accepted snapshot does not re-encode: %v", err)
	}
	if n := headerSize + payloadSize(s, mark{}); n != out.Len() {
		t.Fatalf("payloadSize predicts %d record bytes, Encode wrote %d", n, out.Len())
	}
	back, err := Decode(&out)
	if err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("accepted snapshot re-encodes to a log that decodes to %+v (%v), not to %+v", back, err, s)
	}
}

// checkPartition asserts that the streams a capture names are one
// partition of its arrived streams: each in range and in one place
// only — closed, live or queued — with as many placed as have arrived,
// and every pending departure a distinct closed stream that was
// admitted.
func checkPartition(t *testing.T, c *fleet.OpenCapture) {
	t.Helper()
	place := map[int32]string{}
	put := func(k int32, where string) {
		if k < 0 || int(k) >= c.Streams {
			t.Fatalf("%s stream %d is out of range of %d streams", where, k, c.Streams)
		}
		if prev, ok := place[k]; ok {
			t.Fatalf("stream %d is %s and %s", k, prev, where)
		}
		place[k] = where
	}
	for i := 0; i < c.NumClosed(); i++ {
		cs := c.ClosedAt(i)
		where := "closed"
		if cs.Lifecycle.Shed {
			where = "shed"
		}
		put(cs.K, where)
	}
	for _, l := range c.Live {
		put(l.K, "live")
	}
	for _, k := range c.Backlog {
		put(k, "queued")
	}
	if len(place) != c.NextArrival || c.NextArrival > c.Streams {
		t.Fatalf("%d streams placed, %d arrived of %d", len(place), c.NextArrival, c.Streams)
	}
	departing := map[int32]bool{}
	for _, d := range c.Departures {
		if place[d.K] != "closed" || departing[d.K] {
			t.Fatalf("departure of stream %d, which is %q or departs twice", d.K, place[d.K])
		}
		departing[d.K] = true
	}
}
