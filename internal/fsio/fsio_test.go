package fsio

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestNilFSIsDurablePassthrough(t *testing.T) {
	dir := t.TempDir()
	var fs *FS // nil: the plain, always-durable seam
	path := filepath.Join(dir, "sub", "a.json")
	if err := fs.WriteFileAtomic("put", path, []byte("hello")); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := fs.ReadFile("get", path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	af, err := fs.OpenAppend("journal", filepath.Join(dir, "j.log"))
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	if err := af.Append([]byte("line\n")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := af.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := af.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := fs.Remove("evict", path); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if fs.Counters() != (Counters{}) {
		t.Fatalf("nil FS should not count")
	}
}

func TestParseFailpointsGrammar(t *testing.T) {
	good := []string{
		"",
		"enospc:put:3",
		"eio:fsync:*",
		"torn:journal:128",
		"powercut:7",
		"enospc:put:1-4, eio:*:2",
		"enospc:write:*,torn:append:0",
	}
	for _, spec := range good {
		if _, err := ParseFailpoints(spec); err != nil {
			t.Errorf("ParseFailpoints(%q): %v", spec, err)
		}
	}
	bad := []string{
		"enospc:put",     // missing count
		"enospc:put:0",   // count must be >= 1
		"enospc:put:x",   // not a number
		"enospc:put:4-2", // inverted window
		"torn:x",         // missing bytes
		"torn:x:-1",      // negative bytes
		"powercut:x",     // not a number
		"hang:put",       // chaos kind, not an fsfault kind
		"enospc:put:1:extra",
	}
	for _, spec := range bad {
		if _, err := ParseFailpoints(spec); err == nil {
			t.Errorf("ParseFailpoints(%q): want error", spec)
		}
	}
	if got := MustFailpoints("enospc:put:3").String(); got != "enospc:put:3" {
		t.Errorf("String() = %q", got)
	}
}

func TestEnospcAtNthMatchingOp(t *testing.T) {
	// Counts are over matching primitive ops: a WriteFileAtomic under tag
	// "put" is mkdir,create,write,fsync,rename,fsyncdir, so `enospc:put:2`
	// fails the first logical call at its create step — and because the
	// failure precedes the temp file, nothing lands on disk at all.
	dir := t.TempDir()
	fs := New(MustFailpoints("enospc:put:2"))
	p := func(i byte) string { return filepath.Join(dir, string('a'+i)+".json") }

	err := fs.WriteFileAtomic("put", p(0), []byte("one"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first put: want ENOSPC, got %v", err)
	}
	if !IsInjected(err) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("failed put left files: %v", ents)
	}
	// The window was exactly op 2; the next call's six ops all pass.
	if err := fs.WriteFileAtomic("put", p(1), []byte("two")); err != nil {
		t.Fatalf("second put should pass: %v", err)
	}
	if got, _ := os.ReadFile(p(1)); string(got) != "two" {
		t.Fatalf("entry = %q", got)
	}
	c := fs.Counters()
	if c.Injected != 1 {
		t.Fatalf("Injected = %d, want 1", c.Injected)
	}
}

func TestTornAppendLandsPrefix(t *testing.T) {
	dir := t.TempDir()
	fs := New(MustFailpoints("torn:journal:4"))
	path := filepath.Join(dir, "j.log")
	af, err := fs.OpenAppend("journal", path)
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	err = af.Append([]byte("0123456789\n"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn append: want EIO, got %v", err)
	}
	af.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "0123" {
		t.Fatalf("torn append landed %q, want %q", got, "0123")
	}
	// The rule fired once; the next append goes through whole.
	af, err = fs.OpenAppend("journal", path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := af.Append([]byte("rest\n")); err != nil {
		t.Fatalf("append after torn: %v", err)
	}
	af.Close()
	got, _ = os.ReadFile(path)
	if string(got) != "0123rest\n" {
		t.Fatalf("after recovery append: %q", got)
	}
}

func TestPowerCutFailsEverythingAfterN(t *testing.T) {
	dir := t.TempDir()
	fs := New(MustFailpoints("powercut:3"))
	af, err := fs.OpenAppend("journal", filepath.Join(dir, "j.log")) // op 1
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	if err := af.Append([]byte("a\n")); err != nil { // op 2
		t.Fatalf("append 1: %v", err)
	}
	if err := af.Sync(); err != nil { // op 3: the last op that succeeds
		t.Fatalf("sync: %v", err)
	}
	if err := af.Append([]byte("b\n")); !errors.Is(err, ErrPowerCut) { // op 4: machine is off
		t.Fatalf("append after cut: want ErrPowerCut, got %v", err)
	}
	if !errors.Is(fs.Remove("x", filepath.Join(dir, "j.log")), syscall.EIO) {
		t.Fatalf("ops after cut must keep failing")
	}
	af.Close()
}

func TestFsyncFailpointByOpName(t *testing.T) {
	dir := t.TempDir()
	fs := New(MustFailpoints("eio:fsync:*"))
	err := fs.WriteFileAtomic("put", filepath.Join(dir, "a.json"), []byte("x"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO from fsync failpoint, got %v", err)
	}
	// Atomicity held: the temp never got renamed into place.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Fatalf("fsync failure left files behind: %v", ents)
	}
}

func TestCountWindow(t *testing.T) {
	fs := New(MustFailpoints("eio:read:2-3"))
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	os.WriteFile(path, []byte("v"), 0o644)
	for i, wantErr := range []bool{false, true, true, false, false} {
		_, err := fs.ReadFile("get", path)
		if (err != nil) != wantErr {
			t.Fatalf("read %d: err=%v, wantErr=%v", i+1, err, wantErr)
		}
	}
}

func TestRecorderTraceAndDump(t *testing.T) {
	dir := t.TempDir()
	fs := New(MustFailpoints("enospc:put:*"))
	rec := NewRecorder(dir, true)
	fs.SetRecorder(rec)

	fs.WriteFileAtomic("meta", filepath.Join(dir, "m.json"), []byte("ok"))
	fs.WriteFileAtomic("put", filepath.Join(dir, "p.json"), []byte("no"))

	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatalf("no ops recorded")
	}
	var wroteData, sawFault bool
	for i, op := range ops {
		if op.Seq != i+1 {
			t.Fatalf("seq gap at %d: %+v", i, op)
		}
		if filepath.IsAbs(op.Path) {
			t.Fatalf("path not rooted: %+v", op)
		}
		if op.Op == OpWrite && string(op.Data) == "ok" {
			wroteData = true
		}
		if op.Tag == "put" && op.Err != "" {
			sawFault = true
		}
	}
	if !wroteData {
		t.Fatalf("write payload not captured: %+v", ops)
	}
	if !sawFault {
		t.Fatalf("injected fault not recorded: %+v", ops)
	}

	logPath := filepath.Join(t.TempDir(), "oplog.jsonl")
	if err := rec.WriteFile(logPath); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	b, err := os.ReadFile(logPath)
	if err != nil || len(b) == 0 {
		t.Fatalf("op log empty: %v", err)
	}
}

func TestWriteFileAtomicOpOrder(t *testing.T) {
	// The durability fix this package exists for: temp is fsync'd before the
	// rename, and the parent dir is fsync'd after. Regression-tested via the
	// op log, as the issue asks.
	dir := t.TempDir()
	fs := New(nil)
	rec := NewRecorder(dir, false)
	fs.SetRecorder(rec)
	if err := fs.WriteFileAtomic("put", filepath.Join(dir, "a.json"), []byte("x")); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	var seq []string
	for _, op := range rec.Ops() {
		if op.Op == OpMkdir {
			continue
		}
		seq = append(seq, op.Op)
	}
	want := []string{OpCreate, OpWrite, OpFsync, OpRename, OpFsyncDir}
	if len(seq) != len(want) {
		t.Fatalf("op sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("op %d = %s, want %s (full: %v)", i, seq[i], want[i], seq)
		}
	}
}

func TestSetFailpointsRuntimeSwap(t *testing.T) {
	dir := t.TempDir()
	fs := New(MustFailpoints("enospc:put:*"))
	path := filepath.Join(dir, "a.json")
	if err := fs.WriteFileAtomic("put", path, []byte("x")); err == nil {
		t.Fatalf("armed fault did not fire")
	}
	fs.SetFailpoints(nil)
	if got := fs.ArmedSpec(); got != "" {
		t.Fatalf("ArmedSpec after clear = %q", got)
	}
	if err := fs.WriteFileAtomic("put", path, []byte("x")); err != nil {
		t.Fatalf("after clear: %v", err)
	}
	fs.SetFailpoints(MustFailpoints("eio:put:*"))
	if err := fs.WriteFileAtomic("put", path, []byte("y")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("rearmed: want EIO, got %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "x" {
		t.Fatalf("failed overwrite clobbered the entry: %q", got)
	}
}
