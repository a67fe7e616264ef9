package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"knives/internal/statestore"
	"knives/internal/vfs"
)

// span is one recorded interval at a layer boundary. Client spans carry the
// request's ID; statestore and vfs spans carry the ID of the statestore call
// that caused them when one was running (0 otherwise), so a snapshot's
// fsyncs attribute to the append that triggered it.
type span struct {
	Layer  string    `json:"layer"` // "http", "statestore", "vfs"
	Name   string    `json:"name"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	Dur    float64   `json:"dur_s"`
	Events int       `json:"events,omitempty"` // statestore: events per append
	Bytes  int       `json:"bytes,omitempty"`  // vfs: bytes written
}

// tracer keeps spans in memory; they are written out once, after the run.
// A nil *tracer records nothing, so the untraced run pays one nil check per
// boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  uint64
	// cur is the statestore call in progress. Durable serializes appends
	// and snapshots under its own mutex, so at most one is in flight.
	cur uint64
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore wraps the durable statestore.Store the service journals to.
// The service never type-asserts its store, so the wrapper changes timing
// only.
type tracedStore struct {
	statestore.Store
	tr *tracer
}

func (s *tracedStore) call(name string, events int, f func() error) error {
	id := s.tr.newID()
	s.tr.mu.Lock()
	s.tr.cur = id
	s.tr.mu.Unlock()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	s.tr.mu.Lock()
	s.tr.cur = 0
	s.tr.mu.Unlock()
	s.tr.add(span{Layer: "statestore", Name: name, ID: id, Start: t0, Dur: d.Seconds(), Events: events})
	return err
}

func (s *tracedStore) Append(ev statestore.Event) error {
	return s.call("append", 1, func() error { return s.Store.Append(ev) })
}

func (s *tracedStore) AppendBatch(evs []statestore.Event) error {
	return s.call("append", len(evs), func() error { return s.Store.AppendBatch(evs) })
}

func (s *tracedStore) Snapshot() error {
	return s.call("snapshot", 0, s.Store.Snapshot)
}

// tracedFS wraps the WAL directory. Besides fsyncs and writes it records
// each snapshot the store takes on its own cadence (inside an append): the
// interval from creating the temporary snapshot file to renaming it into
// place.
type tracedFS struct {
	vfs.FS
	tr       *tracer
	snapFrom time.Time
}

func (fs *tracedFS) parent() uint64 {
	fs.tr.mu.Lock()
	defer fs.tr.mu.Unlock()
	return fs.tr.cur
}

func (fs *tracedFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs}, nil
}

func (fs *tracedFS) Create(name string) (vfs.File, error) {
	if name == snapshotTmp {
		fs.snapFrom = time.Now()
	}
	f, err := fs.FS.Create(name)
	return fs.wrap(f, err)
}

func (fs *tracedFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	return fs.wrap(f, err)
}

func (fs *tracedFS) Rename(oldname, newname string) error {
	err := fs.FS.Rename(oldname, newname)
	if oldname == snapshotTmp && !fs.snapFrom.IsZero() {
		fs.record("snapshot", fs.snapFrom, 0)
		fs.snapFrom = time.Time{}
	}
	return err
}

func (fs *tracedFS) SyncDir() error {
	t0 := time.Now()
	err := fs.FS.SyncDir()
	fs.record("fsync", t0, 0)
	return err
}

// snapshotTmp is the temporary file name a statestore snapshot is written
// under before its atomic rename.
const snapshotTmp = "snapshot.tmp"

type tracedFile struct {
	vfs.File
	fs *tracedFS
}

// record adds one vfs span that started at t0.
func (fs *tracedFS) record(name string, t0 time.Time, bytes int) {
	fs.tr.add(span{Layer: "vfs", Name: name, ID: fs.tr.newID(), Parent: fs.parent(),
		Start: t0, Dur: time.Since(t0).Seconds(), Bytes: bytes})
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.fs.record("write", t0, n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.fs.record("write", t0, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.record("fsync", t0, 0)
	return err
}

// layerSum summarizes one layer's spans of one name: how many, their total
// duration, and the bytes and events they carried.
type layerSum struct {
	n      int
	total  float64
	bytes  int64
	events int64
}

// sum totals the spans of one layer and name that started in [from, to).
func (t *tracer) sum(layer, name string, from, to time.Time) layerSum {
	var s layerSum
	if t == nil {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Layer == layer && sp.Name == name && !sp.Start.Before(from) && sp.Start.Before(to) {
			s.n++
			s.total += sp.Dur
			s.bytes += int64(sp.Bytes)
			s.events += int64(sp.Events)
		}
	}
	return s
}

func (s layerSum) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.total / float64(s.n) * 1e3
}
