package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/controller"
	"repro/internal/fleet"
	"repro/internal/workloads"
)

// TestResumeRejectsIncoherentMeta: a snapshot that passes the CRC and
// the fingerprint check but whose bundle metadata cannot index the
// activation list must fail the resume with an error naming the
// snapshot, not panic. The bundle it names is retained and the event
// file holds an arrival, so a resume that skipped the check would reach
// the index.
func TestResumeRejectsIncoherentMeta(t *testing.T) {
	cat, err := workloads.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	b, err := controller.Compile(controller.SpecFromSystem("sdr", cat["sdr-pipeline"], []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	src := t.TempDir()
	bundlePath := filepath.Join(src, "bundle.json")
	if err := checkpoint.WriteAtomic(bundlePath, func(w io.Writer) error {
		_, err := b.WriteTo(w)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	events := filepath.Join(src, "events.ndjson")
	if err := os.WriteFile(events, []byte(`{"op":"arrive","name":"s0","at":0,"cycles":1,"seed":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		meta func(h uint64) checkpoint.Meta
	}{
		{"no bundle hashes", func(uint64) checkpoint.Meta { return checkpoint.Meta{} }},
		{"negative stream bundle", func(h uint64) checkpoint.Meta {
			return checkpoint.Meta{ArrivalCursor: 1, BundleHashes: []uint64{h}, StreamBundle: []int32{-1}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := &daemon{
				stateDir: dir,
				store:    &checkpoint.Store{Dir: dir},
				fp:       "qmfleetd-test",
				bundles:  map[uint64]*controller.Bundle{},
			}
			_, h, err := d.loadBundle(bundlePath)
			if err != nil {
				t.Fatal(err)
			}
			meta := tc.meta(h)
			meta.Fingerprint = d.fp
			path, err := d.store.Save(&checkpoint.Snapshot{Meta: meta, Capture: &fleet.OpenCapture{Events: 1}})
			if err != nil {
				t.Fatal(err)
			}
			err = d.tryResume(events)
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("tryResume = %v, want an error naming %s", err, path)
			}
		})
	}
}
