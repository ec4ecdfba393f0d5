package checkpoint

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// FuzzDecode feeds Decode arbitrary bytes, each input twice: raw, and
// as a payload wrapped in a valid header and CRC so the fuzzer reaches
// the payload decoder past the checksum. Decode must never panic, every
// error must carry the package prefix, and every accepted snapshot must
// re-encode to exactly the bytes Decode consumed — which also checks,
// on every accepted input, that the sized encoder and the decoder
// agree on the format.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, wrap(data))
	})
}

func checkDecode(t *testing.T, in []byte) {
	r := bytes.NewReader(in)
	s, err := Decode(r)
	if err != nil {
		if !strings.HasPrefix(err.Error(), "checkpoint: ") {
			t.Fatalf("error without the package prefix: %v", err)
		}
		return
	}
	// Decode reads one snapshot from a stream and leaves what follows
	// unread.
	consumed := in[:len(in)-r.Len()]
	var out bytes.Buffer
	if err := Encode(&out, s); err != nil {
		t.Fatalf("accepted snapshot does not re-encode: %v", err)
	}
	if !bytes.Equal(out.Bytes(), consumed) {
		t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(consumed), out.Len())
	}
	if n := headerSize + payloadSize(s); n != out.Len() {
		t.Fatalf("payloadSize predicts %d snapshot bytes, Encode wrote %d", n, out.Len())
	}
}
