package fsio_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vcoma/internal/fsio"
	"vcoma/internal/fsio/crashsim"
)

type logHeader struct {
	Schema string `json:"schema"`
}

type logEntry struct {
	Seq int `json:"seq"`
}

func readEntries(t *testing.T, path string) []logEntry {
	t.Helper()
	var h logHeader
	recs, err := fsio.ReadLog[logEntry](nil, "log", path, &h)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if h.Schema != "test-v1" {
		t.Fatalf("header = %+v", h)
	}
	return recs
}

func TestLogReopenAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.json")
	l, err := (*fsio.FS)(nil).CreateLog("log", path, logHeader{Schema: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Append(logEntry{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// The writer died mid-record: the reopened log must not glue its first
	// record onto the fragment.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":`)
	f.Close()
	l, err = (*fsio.FS)(nil).OpenLog("log", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(logEntry{Seq: 4}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got := readEntries(t, path)
	if fmt.Sprint(got) != "[{1} {2} {3} {4}]" {
		t.Fatalf("records = %v", got)
	}
}

// A torn line in the middle of the log costs only its own record: every
// record after it still reads back.
func TestLogSkipsTornLineMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.json")
	fs := fsio.New(nil)
	l, err := fs.CreateLog("log", path, logHeader{Schema: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(logEntry{Seq: 1})
	fs.SetFailpoints(fsio.MustFailpoints("torn:log:4"))
	if err := l.Append(logEntry{Seq: 2}); err == nil {
		t.Fatal("torn append reported success")
	}
	fs.SetFailpoints(nil)
	l.Append(logEntry{Seq: 3})
	l.Append(logEntry{Seq: 4})
	l.Close()
	if got := readEntries(t, path); fmt.Sprint(got) != "[{1} {3} {4}]" {
		t.Fatalf("records = %v, want 1, 3 and 4", got)
	}
}

func TestReadLogReportsMissingHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty": "",
		"torn":  `{"sche`,
		"blank": "\n{\"seq\":1}\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var h logHeader
		if _, err := fsio.ReadLog[logEntry](nil, "log", path, &h); !errors.Is(err, fsio.ErrNoHeader) {
			t.Errorf("%s log: err = %v, want ErrNoHeader", name, err)
		}
	}
	var h logHeader
	if _, err := fsio.ReadLog[logEntry](nil, "log", filepath.Join(dir, "absent"), &h); !os.IsNotExist(err) {
		t.Errorf("absent log: err = %v, want not-exist", err)
	}
}

// TestLogCrashSweep records a log story with one failed (torn) append and
// replays every power-cut prefix of it. In every crash state of prefix k
// the log must read back exactly the records whose Append had returned nil
// within those k ops, in order, optionally followed by later successful
// ones that happened to land, and never the torn record.
func TestLogCrashSweep(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "log.json")
	fs := fsio.New(nil)
	rec := fsio.NewRecorder(root, true)
	fs.SetRecorder(rec)
	l, err := fs.CreateLog("log", path, logHeader{Schema: "test-v1"})
	if err != nil {
		t.Fatal(err)
	}
	headerAt := len(rec.Ops())
	var ok, okAt []int // successful appends and the op count when each returned
	for seq := 1; seq <= 5; seq++ {
		if seq == 3 {
			fs.SetFailpoints(fsio.MustFailpoints("torn:log:5"))
		}
		err := l.Append(logEntry{Seq: seq})
		fs.SetFailpoints(nil)
		if err == nil {
			ok, okAt = append(ok, seq), append(okAt, len(rec.Ops()))
		}
	}
	l.Close()
	if fmt.Sprint(ok) != "[1 2 4 5]" {
		t.Fatalf("successful appends = %v", ok)
	}

	ops := rec.Ops()
	for k := 0; k <= len(ops); k++ {
		synced := 0
		for synced < len(okAt) && okAt[synced] <= k {
			synced++
		}
		err := crashsim.RunOpts(ops[:k], t.TempDir(), func(dir string) error {
			var h logHeader
			got, err := fsio.ReadLog[logEntry](nil, "log", filepath.Join(dir, "log.json"), &h)
			if err != nil {
				if k >= headerAt {
					return fmt.Errorf("synced header lost: %w", err)
				}
				return nil
			}
			if len(got) < synced || len(got) > len(ok) {
				return fmt.Errorf("read %v, want the first %d..%d of %v", got, synced, len(ok), ok)
			}
			for i, e := range got {
				if e.Seq != ok[i] {
					return fmt.Errorf("read %v, want a prefix of %v", got, ok)
				}
			}
			return nil
		}, crashsim.Options{From: k})
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
	}
}
