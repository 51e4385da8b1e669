// Package fsio is the harness's filesystem seam: every durable write the
// runner cache, the journals, the artifact store and the trace sidecars
// perform goes through an *FS, which (a) implements the write-temp → fsync →
// rename → fsync-parent discipline once, correctly, instead of five slightly
// different ways, (b) hosts a deterministic failpoint engine so tests and
// smokes can inject ENOSPC, EIO, torn writes and power cuts at the Nth
// matching operation (see ParseFailpoints), and (c) can record an op log of
// every primitive it performed — the input to the crashsim power-cut
// prefix sweep and the artifact CI uploads when a fault smoke fails.
//
// A nil *FS is valid everywhere and performs the real, fully durable
// operations with no counting and no faults, so library callers that never
// touch fault injection pay nothing for the seam.
package fsio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
)

// Primitive operation names, the first axis failpoints match on (the second
// is the caller-supplied tag naming the logical write site: "put",
// "journal", "trace", "probe", ...).
const (
	OpMkdir     = "mkdir"
	OpCreate    = "create" // truncating create
	OpOpen      = "open"   // append-mode open (keeps existing bytes)
	OpWrite     = "write"
	OpAppend    = "append"
	OpFsync     = "fsync"
	OpRename    = "rename"
	OpFsyncDir  = "fsyncdir"
	OpRemove    = "remove"
	OpRemoveAll = "removeall"
	OpRead      = "read"
)

// Counters is a snapshot of an FS's lifetime activity.
type Counters struct {
	Ops      uint64 // primitive operations attempted
	Errors   uint64 // operations that failed (injected or real)
	Injected uint64 // failures injected by the failpoint engine
}

// FS is the filesystem seam. The zero value and nil are both plain
// passthroughs; New returns an FS whose operations consult a failpoint set
// and count into Counters.
type FS struct {
	fp  atomic.Pointer[Failpoints]
	rec atomic.Pointer[Recorder]

	ops, errs, injected atomic.Uint64
}

// New returns an FS armed with fp (nil fp = no faults, but counting and
// recording still work — the serve daemon always runs on an instance so its
// /metrics can export fsio counters).
func New(fp *Failpoints) *FS {
	fs := &FS{}
	if fp != nil {
		fs.fp.Store(fp)
	}
	return fs
}

// SetFailpoints swaps the armed failpoint set; nil disarms. Safe under
// concurrent operations — the serve daemon's /debug/fsfault endpoint uses
// it to clear or rearm faults on a live server.
func (fs *FS) SetFailpoints(fp *Failpoints) {
	if fs == nil {
		return
	}
	if fp == nil {
		fs.fp.Store(nil)
		return
	}
	fs.fp.Store(fp)
}

// ArmedSpec returns the armed failpoint set's spec string ("" when none).
func (fs *FS) ArmedSpec() string {
	if fs == nil {
		return ""
	}
	return fs.fp.Load().String()
}

// SetRecorder attaches an op recorder; nil detaches.
func (fs *FS) SetRecorder(r *Recorder) {
	if fs == nil {
		return
	}
	if r == nil {
		fs.rec.Store(nil)
		return
	}
	fs.rec.Store(r)
}

// Counters snapshots the FS's op/error/injection tallies (zero for nil).
func (fs *FS) Counters() Counters {
	if fs == nil {
		return Counters{}
	}
	return Counters{Ops: fs.ops.Load(), Errors: fs.errs.Load(), Injected: fs.injected.Load()}
}

// gate counts one primitive op and consults the failpoints. It returns the
// torn-write byte bound (<0: write everything) and the injected error, if
// any. Real-op outcomes are recorded separately by the callers.
func (fs *FS) gate(op, tag, path string) (tear int, err error) {
	if fs == nil {
		return -1, nil
	}
	fs.ops.Add(1)
	fp := fs.fp.Load()
	if fp == nil {
		return -1, nil
	}
	tear, err = fp.gate(op, tag)
	if err != nil {
		fs.injected.Add(1)
		err = &FaultError{Op: op, Tag: tag, Path: path, Err: err}
	}
	return tear, err
}

// record appends one op to the attached recorder, noting real failures so
// the op log is a faithful trace even when the disk itself misbehaved.
func (fs *FS) record(op, tag, path, path2 string, data []byte, err error) {
	if fs == nil {
		return
	}
	if err != nil {
		fs.errs.Add(1)
	}
	if r := fs.rec.Load(); r != nil {
		r.add(op, tag, path, path2, data, err)
	}
}

// ReadFile reads the named file (failpoint-injectable as op "read").
func (fs *FS) ReadFile(tag, path string) ([]byte, error) {
	if _, err := fs.gate(OpRead, tag, path); err != nil {
		fs.record(OpRead, tag, path, "", nil, err)
		return nil, err
	}
	data, err := os.ReadFile(path)
	fs.record(OpRead, tag, path, "", nil, err)
	return data, err
}

// MkdirAll creates dir and any missing parents.
func (fs *FS) MkdirAll(tag, dir string) error {
	if _, err := fs.gate(OpMkdir, tag, dir); err != nil {
		fs.record(OpMkdir, tag, dir, "", nil, err)
		return err
	}
	err := os.MkdirAll(dir, 0o755)
	fs.record(OpMkdir, tag, dir, "", nil, err)
	return err
}

// Remove unlinks path.
func (fs *FS) Remove(tag, path string) error {
	if _, err := fs.gate(OpRemove, tag, path); err != nil {
		fs.record(OpRemove, tag, path, "", nil, err)
		return err
	}
	err := os.Remove(path)
	fs.record(OpRemove, tag, path, "", nil, err)
	return err
}

// RemoveAll removes path and everything below it.
func (fs *FS) RemoveAll(tag, path string) error {
	if _, err := fs.gate(OpRemoveAll, tag, path); err != nil {
		fs.record(OpRemoveAll, tag, path, "", nil, err)
		return err
	}
	err := os.RemoveAll(path)
	fs.record(OpRemoveAll, tag, path, "", nil, err)
	return err
}

// Rename renames old to new and fsyncs new's parent directory, the step that
// makes the rename itself survive a power cut.
func (fs *FS) Rename(tag, oldpath, newpath string) error {
	if _, err := fs.gate(OpRename, tag, oldpath); err != nil {
		fs.record(OpRename, tag, oldpath, newpath, nil, err)
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		fs.record(OpRename, tag, oldpath, newpath, nil, err)
		return err
	}
	fs.record(OpRename, tag, oldpath, newpath, nil, nil)
	return fs.SyncDir(tag, filepath.Dir(newpath))
}

// SyncDir fsyncs a directory, making renames and unlinks inside it durable.
// A no-op on platforms where directories cannot be fsync'd.
func (fs *FS) SyncDir(tag, dir string) error {
	if _, err := fs.gate(OpFsyncDir, tag, dir); err != nil {
		fs.record(OpFsyncDir, tag, dir, "", nil, err)
		return err
	}
	err := syncDir(dir)
	fs.record(OpFsyncDir, tag, dir, "", nil, err)
	return err
}

func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil // directory handles cannot be fsync'd there
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes data to path so that after any crash the file holds
// either its previous contents or exactly data, durably:
//
//	mkdir parents → create temp → write → fsync temp → rename → fsync dir
//
// The temp file is removed on any failure, so an injected or real error
// never leaves a partial entry behind.
func (fs *FS) WriteFileAtomic(tag, path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := fs.MkdirAll(tag, dir); err != nil {
		return err
	}
	if _, err := fs.gate(OpCreate, tag, path); err != nil {
		fs.record(OpCreate, tag, path, "", nil, err)
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	fs.record(OpCreate, tag, tmpName(tmp), "", nil, err)
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
		fs.record(OpRemove, tag, tmp.Name(), "", nil, nil)
	}
	if err := fs.writeTo(tag, tmp, data); err != nil {
		cleanup()
		return err
	}
	if err := fs.fsyncFile(tag, tmp); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		fs.record(OpRemove, tag, tmp.Name(), "", nil, nil)
		return err
	}
	if _, err := fs.gate(OpRename, tag, tmp.Name()); err != nil {
		fs.record(OpRename, tag, tmp.Name(), path, nil, err)
		os.Remove(tmp.Name())
		fs.record(OpRemove, tag, tmp.Name(), "", nil, nil)
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		fs.record(OpRename, tag, tmp.Name(), path, nil, err)
		os.Remove(tmp.Name())
		return err
	}
	fs.record(OpRename, tag, tmp.Name(), path, nil, nil)
	return fs.SyncDir(tag, dir)
}

func tmpName(f *os.File) string {
	if f == nil {
		return ""
	}
	return f.Name()
}

// writeTo performs one gated, torn-able write of data to f (op "write").
func (fs *FS) writeTo(tag string, f *os.File, data []byte) error {
	tear, err := fs.gate(OpWrite, tag, f.Name())
	if err != nil {
		if tear >= 0 && tear < len(data) {
			// A torn write really lands its prefix on disk before failing —
			// that is the point: recovery code must meet genuinely torn bytes.
			n, _ := f.Write(data[:tear])
			fs.record(OpWrite, tag, f.Name(), "", data[:n], err)
			return err
		}
		fs.record(OpWrite, tag, f.Name(), "", nil, err)
		return err
	}
	n, err := f.Write(data)
	fs.record(OpWrite, tag, f.Name(), "", data[:n], err)
	return err
}

// fsyncFile performs one gated fsync of f (op "fsync").
func (fs *FS) fsyncFile(tag string, f *os.File) error {
	if _, err := fs.gate(OpFsync, tag, f.Name()); err != nil {
		fs.record(OpFsync, tag, f.Name(), "", nil, err)
		return err
	}
	err := f.Sync()
	fs.record(OpFsync, tag, f.Name(), "", nil, err)
	return err
}

// WriteFile is the plain, non-atomic, non-durable write — for advisory
// sidecars (quarantine .reason files) whose loss costs nothing.
func (fs *FS) WriteFile(tag, path string, data []byte) error {
	if _, err := fs.gate(OpCreate, tag, path); err != nil {
		fs.record(OpCreate, tag, path, "", nil, err)
		return err
	}
	fs.record(OpCreate, tag, path, "", nil, nil)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = fs.writeTo(tag, f, data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// AppendFile is an open append-mode file whose writes and fsyncs route
// through the seam — the journals' handle.
type AppendFile struct {
	fs   *FS
	tag  string
	path string
	f    *os.File
}

// Create opens path truncated for journal-style appending.
func (fs *FS) Create(tag, path string) (*AppendFile, error) {
	return fs.openAppend(OpCreate, tag, path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
}

// OpenAppend opens path for appending, creating it if needed.
func (fs *FS) OpenAppend(tag, path string) (*AppendFile, error) {
	return fs.openAppend(OpOpen, tag, path, os.O_WRONLY|os.O_CREATE|os.O_APPEND)
}

func (fs *FS) openAppend(op, tag, path string, flag int) (*AppendFile, error) {
	if _, err := fs.gate(op, tag, path); err != nil {
		fs.record(op, tag, path, "", nil, err)
		return nil, err
	}
	f, err := os.OpenFile(path, flag, 0o644)
	fs.record(op, tag, path, "", nil, err)
	if err != nil {
		return nil, err
	}
	return &AppendFile{fs: fs, tag: tag, path: path, f: f}, nil
}

// Write makes an AppendFile an io.Writer (streaming recorders, encoders);
// it is Append with the io.Writer contract on the return values.
func (a *AppendFile) Write(p []byte) (int, error) {
	if err := a.Append(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Append writes data at the end of the file (op "append", torn-able).
func (a *AppendFile) Append(data []byte) error {
	tear, err := a.fs.gate(OpAppend, a.tag, a.path)
	if err != nil {
		if tear >= 0 && tear < len(data) {
			n, _ := a.f.Write(data[:tear])
			a.fs.record(OpAppend, a.tag, a.path, "", data[:n], err)
			return err
		}
		a.fs.record(OpAppend, a.tag, a.path, "", nil, err)
		return err
	}
	n, err := a.f.Write(data)
	a.fs.record(OpAppend, a.tag, a.path, "", data[:n], err)
	return err
}

// Sync fsyncs the file — each journal record's durability point.
func (a *AppendFile) Sync() error {
	return a.fs.fsyncFile(a.tag, a.f)
}

// Close closes the underlying file.
func (a *AppendFile) Close() error {
	return a.f.Close()
}

// FaultError is an injected failure. It unwraps to the underlying errno
// (syscall.ENOSPC, syscall.EIO, or ErrPowerCut), so errors.Is sees exactly
// what a real bad disk would produce.
type FaultError struct {
	Op   string
	Tag  string
	Path string
	Err  error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("fsio: injected fault at %s (tag %s, %s): %v", e.Op, e.Tag, e.Path, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// IsInjected reports whether err traces back to the failpoint engine, so
// tests can tell injected faults from real disk trouble.
func IsInjected(err error) bool {
	var fe *FaultError
	return errors.As(err, &fe)
}
