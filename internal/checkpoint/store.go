package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
)

// AtomicFile is an io.Writer whose target path either keeps its
// previous content or receives the complete new content — never a torn
// mix. Writes go to a temporary file in the target's directory; Commit
// fsyncs it, renames it over the target, and fsyncs the directory so
// the rename survives a crash; Abort (or a Commit failure) removes the
// temporary file. It is how every run artifact other than a log
// record — a new checkpoint log, report JSON, streamed CSV, a retained
// bundle — reaches disk.
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

// logName is the checkpoint log's file name in a store's directory.
const logName = "checkpoint.log"

// v1Prefix and v1Suffix name the snapshot files of format version 1,
// which kept each snapshot whole in its own file.
const (
	v1Prefix = "snap-"
	v1Suffix = ".ckpt"
)

// errLogMoved reports that the log is not the one the store left: gone,
// or shorter than its last record's end.
var errLogMoved = errors.New("checkpoint: the log is not as this store left it")

// Store keeps a state directory's checkpoint log, checkpoint.log. Save
// appends one record per checkpoint with what changed since the last,
// and LoadLatest folds every whole record back into the newest
// snapshot, which together give the crash-recovery guarantee: a process
// killed at any instant, including mid-Save, resumes from the newest
// record that is whole. A Store appends successive snapshots of one run;
// a snapshot that does not continue the log — another fingerprint,
// fewer closed streams, activations or bindings, an earlier event count
// — or a log that is gone or shorter than the store left it starts a
// new log with one self-contained record. The log's layout depends only
// on the snapshots, never the wall clock, so it is deterministic and
// detlint-clean.
type Store struct {
	// Dir is the state directory; it must exist.
	Dir string
	// Logf, when non-nil, receives a line for each corrupt or foreign
	// log tail LoadLatest drops. nil drops silently.
	Logf func(format string, args ...any)
	// Met, when non-nil, receives store-level counters: records written,
	// bytes encoded, encode latency, LoadLatest fallbacks. nil disables
	// instrumentation.
	Met *obs.CheckpointMetrics

	// at is where the log stands as this store last wrote or read it;
	// zero when it knows of no log to append to.
	at mark
}

func (st *Store) logf(format string, args ...any) {
	if st.Logf != nil {
		st.Logf(format, args...)
	}
}

// Path returns the checkpoint log's path.
func (st *Store) Path() string { return filepath.Join(st.Dir, logName) }

// Save durably appends one record of s to the log and returns the log's
// path. The record holds the streams closed, the bundles activated and
// the streams bound since the record before it, and the complete open
// state; it is encoded into one buffer of its exact size, written in a
// single Write and fsynced. The first Save of a store that has not
// loaded the log, or one whose snapshot or log does not continue the
// last, writes a new log of one self-contained record instead, through
// an AtomicFile, so the log it replaces stays whole until the new one
// is. A tail past the last whole record — a torn append, or records
// LoadLatest dropped — is cut off before the append.
func (st *Store) Save(s *Snapshot) (string, error) {
	path := st.Path()
	var start int64
	if m := st.Met; m != nil && m.NowNanos != nil {
		start = m.NowNanos()
	}
	n, err := st.save(path, s)
	if err != nil {
		return "", fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	if m := st.Met; m != nil {
		m.Snapshots.Inc()
		m.Bytes.Add(int64(n))
		if m.NowNanos != nil {
			m.Encode.Observe(m.NowNanos() - start)
		}
	}
	return path, nil
}

// save writes the record and returns its length.
func (st *Store) save(path string, s *Snapshot) (int, error) {
	if s.Capture == nil {
		return 0, errors.New("checkpoint: snapshot without a capture")
	}
	if st.at.size > 0 && st.at.continues(s) {
		n, err := st.append(path, s)
		if !errors.Is(err, errLogMoved) {
			return n, err
		}
	}
	b, err := encodeRecord(s, mark{})
	if err == nil {
		err = WriteAtomic(path, func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		})
	}
	if err != nil {
		return 0, err
	}
	st.at = after(s, int64(len(b)))
	return len(b), nil
}

// append adds the record of s to the log the store left, or returns
// errLogMoved when that log is gone or shorter than its last record's
// end.
func (st *Store) append(path string, s *Snapshot) (int, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return 0, errLogMoved
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if size := fi.Size(); size < st.at.size {
		return 0, errLogMoved
	} else if size > st.at.size {
		if err := f.Truncate(st.at.size); err != nil {
			return 0, err
		}
	}
	b, err := encodeRecord(s, st.at)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(b); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st.at = after(s, st.at.size+int64(len(b)))
	return len(b), nil
}

// Empty reports whether the directory holds no checkpoints: no log, and
// no snapshot files of format version 1. A missing directory is empty.
// A run that does not resume must start from an empty one, or it would
// adopt another run's checkpoints.
func (st *Store) Empty() (bool, error) {
	if _, err := os.Stat(st.Path()); err == nil {
		return false, nil
	} else if !os.IsNotExist(err) {
		return false, err
	}
	old, err := st.v1Files()
	return len(old) == 0, err
}

// v1Files lists the directory's snapshot files of format version 1.
func (st *Store) v1Files() ([]string, error) {
	entries, err := os.ReadDir(st.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, v1Prefix) && strings.HasSuffix(name, v1Suffix) {
			names = append(names, name)
		}
	}
	return names, nil
}

// LoadLatest folds the log into the snapshot of its newest whole,
// coherent record and returns it with the log's path. A torn, truncated,
// bit-flipped or incoherent record is logged and dropped with every
// record after it; the next Save cuts them off the log before it
// appends. A log that holds no such record, or belongs to another run
// (its fingerprint differs), is logged and gives (nil, "", nil), as a
// missing log does: a fresh start, not an error, whose first Save
// starts a new log. A directory holding format-version-1 snapshot files
// is an error that names the version. Other I/O failures are errors.
func (st *Store) LoadLatest(fingerprint string) (*Snapshot, string, error) {
	st.at = mark{}
	old, err := st.v1Files()
	if err != nil {
		return nil, "", fmt.Errorf("checkpoint: load %s: %w", st.Dir, err)
	}
	if len(old) > 0 {
		return nil, "", fmt.Errorf("checkpoint: %s holds snapshots of format version 1 (%s); this build reads version %d checkpoint logs: start from an empty state directory",
			st.Dir, old[0], Version)
	}
	path := st.Path()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	s, n, err := readLog(b)
	if err != nil {
		st.logf("checkpoint: %s: dropping bytes %d to %d: %v", path, n, len(b), err)
		st.fellBack()
	}
	if s == nil {
		return nil, "", nil
	}
	if s.Meta.Fingerprint != fingerprint {
		st.logf("checkpoint: %s: fingerprint %q does not match this run", path, s.Meta.Fingerprint)
		st.fellBack()
		return nil, "", nil
	}
	st.at = after(s, int64(n))
	return s, path, nil
}

func (st *Store) fellBack() {
	if m := st.Met; m != nil {
		m.Fallbacks.Inc()
	}
}
