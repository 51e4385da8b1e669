package fsio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// ErrNoHeader reports a log whose first line is missing or does not parse:
// an empty file, or one whose creation was cut before the header landed.
var ErrNoHeader = errors.New("fsio: log has no readable header")

// Log is a durable append-only JSON-lines file: a header line, then one
// record per line, each fsync'd before Append returns. Appends are
// serialized, so concurrent writers need no lock of their own.
//
// A failed append may leave a torn fragment at the tail. The next append
// therefore starts a fresh line, and a reopened log starts its first record
// on a fresh line too, since the previous writer may have died mid-record;
// ReadLog skips the fragment and the blank lines this leaves, and returns
// every whole record after them. (A failed append that landed all of its
// JSON but not the newline reads back like any other record.)
type Log struct {
	mu sync.Mutex
	f  *AppendFile
	// tainted records that the tail may end in a partial line, so the next
	// append must open a new one.
	tainted bool
}

// CreateLog truncates path and writes header as its first, synced line.
func (fs *FS) CreateLog(tag, path string, header any) (*Log, error) {
	f, err := fs.Create(tag, path)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f}
	if err := l.Append(header); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenLog reopens an existing log for appending.
func (fs *FS) OpenLog(tag, path string) (*Log, error) {
	f, err := fs.OpenAppend(tag, path)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, tainted: true}, nil
}

// RewriteLog atomically replaces path with header followed by records, the
// compaction step, and reopens the result for appending.
func (fs *FS) RewriteLog(tag, path string, header any, records []any) (*Log, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range append([]any{header}, records...) {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	if err := fs.WriteFileAtomic(tag, path, buf.Bytes()); err != nil {
		return nil, err
	}
	f, err := fs.OpenAppend(tag, path)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// ReadLog reads the log at path, decodes its first line into header and
// returns every later line that decodes as an R, in file order. Lines that
// do not parse (torn fragments) are skipped wherever they sit. A missing
// file returns the os.ErrNotExist error; an empty file or an unparseable
// header returns an error wrapping ErrNoHeader.
func ReadLog[R any](fs *FS, tag, path string, header any) ([]R, error) {
	data, err := fs.ReadFile(tag, path)
	if err != nil {
		return nil, err
	}
	first, rest, _ := bytes.Cut(data, []byte{'\n'})
	if err := json.Unmarshal(first, header); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoHeader, path, err)
	}
	var recs []R
	for len(rest) > 0 {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var r R
		if len(line) > 0 && json.Unmarshal(line, &r) == nil {
			recs = append(recs, r)
		}
	}
	return recs, nil
}

// Append writes rec as one JSON line and fsyncs it: the record's durability
// point.
func (l *Log) Append(rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	line := append(data, '\n')
	if l.tainted {
		line = append([]byte{'\n'}, line...)
	}
	if err := l.f.Append(line); err != nil {
		l.tainted = true
		return err
	}
	l.tainted = false
	return l.f.Sync()
}

// Close closes the log file, leaving it in place.
func (l *Log) Close() error {
	return l.f.Close()
}
