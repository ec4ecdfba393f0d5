package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// AtomicFile is an io.Writer whose target path either keeps its
// previous content or receives the complete new content — never a torn
// mix. Writes go to a temporary file in the target's directory; Commit
// fsyncs it, renames it over the target, and fsyncs the directory so
// the rename survives a crash; Abort (or a Commit failure) removes the
// temporary file. It is how every run artifact — snapshot, report
// JSON, streamed CSV — reaches disk.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// NewAtomicFile opens a temporary file next to path. The caller must
// end with Commit or Abort; deferring Abort is safe after Commit.
func NewAtomicFile(path string) (*AtomicFile, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return nil, err
	}
	return &AtomicFile{f: tmp, path: path}, nil
}

// Write implements io.Writer, into the temporary file.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Commit makes the written content durably visible at the target path.
// On any failure the temporary file is removed and the target keeps
// its previous content.
func (a *AtomicFile) Commit() error {
	if a.done {
		return fmt.Errorf("checkpoint: %s committed twice", a.path)
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.discard()
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	d, err := os.Open(filepath.Dir(a.path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Abort drops the written content, leaving the target untouched. A
// no-op after Commit or a previous Abort.
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.discard()
}

func (a *AtomicFile) discard() {
	a.f.Close()
	os.Remove(a.f.Name())
}

// WriteAtomic writes a file through an AtomicFile: path either keeps
// its previous content or holds the complete new content. Any error —
// from write or from the commit — removes the temporary file.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	a, err := NewAtomicFile(path)
	if err != nil {
		return err
	}
	if err := write(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".ckpt"
	// defaultKeep is how many snapshots Save retains when Keep is
	// unset: enough that a corrupt newest file always leaves a valid
	// predecessor to fall back to.
	defaultKeep = 3
)

// Store keeps a directory of snapshots named snap-<events>.ckpt —
// keyed by the engine's event counter, never the wall clock, so the
// layout is deterministic and detlint-clean. Save writes atomically
// and prunes old snapshots; LoadLatest walks newest to oldest past any
// corrupt file, which together give the crash-recovery guarantee: a
// process killed at any instant, including mid-Save, resumes from the
// newest snapshot that is whole.
type Store struct {
	// Dir is the snapshot directory; it must exist.
	Dir string
	// Keep bounds how many snapshots Save retains (newest first);
	// 0 means defaultKeep, negative keeps all.
	Keep int
	// Logf, when non-nil, receives a line for each corrupt or foreign
	// snapshot LoadLatest skips. nil skips silently.
	Logf func(format string, args ...any)
	// Met, when non-nil, receives store-level counters: snapshots
	// written and pruned, bytes encoded, encode latency, LoadLatest
	// fallbacks. nil disables instrumentation.
	Met *obs.CheckpointMetrics
}

func (st *Store) logf(format string, args ...any) {
	if st.Logf != nil {
		st.Logf(format, args...)
	}
}

// Path returns the snapshot file name for an event count. Events are
// zero-padded so lexicographic and numeric order agree.
func (st *Store) Path(events int64) string {
	return filepath.Join(st.Dir, fmt.Sprintf("%s%020d%s", snapPrefix, events, snapSuffix))
}

// Save atomically persists one snapshot and prunes beyond Keep,
// returning the written path. The snapshot is encoded into one buffer
// of its exact size, which is written in a single Write.
func (st *Store) Save(s *Snapshot) (string, error) {
	path := st.Path(s.Events())
	var start int64
	if m := st.Met; m != nil && m.NowNanos != nil {
		start = m.NowNanos()
	}
	b, err := encodeSnapshot(s)
	if err == nil {
		err = WriteAtomic(path, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
	}
	if err != nil {
		return "", fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	if m := st.Met; m != nil {
		m.Snapshots.Inc()
		m.Bytes.Add(int64(len(b)))
		if m.NowNanos != nil {
			m.Encode.Observe(m.NowNanos() - start)
		}
	}
	st.prune()
	return path, nil
}

// prune removes the oldest snapshots beyond the retention bound. Prune
// errors are deliberately ignored: retention is an economy, not a
// correctness property.
func (st *Store) prune() {
	keep := st.Keep
	if keep < 0 {
		return
	}
	if keep == 0 {
		keep = defaultKeep
	}
	names := st.list()
	for _, name := range names[:max(0, len(names)-keep)] {
		if os.Remove(filepath.Join(st.Dir, name)) == nil {
			if m := st.Met; m != nil {
				m.Pruned.Inc()
			}
		}
	}
}

// list returns the snapshot file names in the store, oldest first.
// Non-snapshot files are ignored.
func (st *Store) list() []string {
	entries, err := os.ReadDir(st.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names) // zero-padded: lexicographic == numeric
	return names
}

// Events parses the event counter out of a snapshot path or file name;
// -1 if the name is not a snapshot's.
func Events(path string) int64 {
	name := filepath.Base(path)
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return -1
	}
	v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// LoadLatest returns the newest decodable snapshot whose fingerprint
// matches, with the path it came from. Corrupt files (torn, truncated,
// bit-flipped — anything Decode rejects) and snapshots of other runs
// are logged and skipped, falling back to the next older one; an empty
// or missing store returns (nil, "", nil) — a fresh start, not an
// error. Only I/O failures (other than the file not existing) are
// errors.
func (st *Store) LoadLatest(fingerprint string) (*Snapshot, string, error) {
	names := st.list()
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(st.Dir, names[i])
		f, err := os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned or renamed between list and open
			}
			return nil, "", fmt.Errorf("checkpoint: load %s: %w", path, err)
		}
		s, err := Decode(f)
		f.Close()
		if err != nil {
			st.logf("checkpoint: skipping %s: %v", path, err)
			if m := st.Met; m != nil {
				m.Fallbacks.Inc()
			}
			continue
		}
		if s.Meta.Fingerprint != fingerprint {
			st.logf("checkpoint: skipping %s: fingerprint %q does not match this run", path, s.Meta.Fingerprint)
			if m := st.Met; m != nil {
				m.Fallbacks.Inc()
			}
			continue
		}
		return s, path, nil
	}
	return nil, "", nil
}
