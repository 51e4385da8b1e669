package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	plan := KeyOf("plan-a")
	j, err := CreateJournal(path, plan, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.record(Result{Name: "a"})
	j.record(Result{Name: "b", Err: errors.New("boom")})
	j.record(Result{Name: "c", Cached: true})
	if j.Done() != 2 || j.Failed() != 1 {
		t.Fatalf("done=%d failed=%d, want 2/1", j.Done(), j.Failed())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, err := ResumeJournal(path, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 3 {
		t.Fatalf("resumed %d entries, want 3", len(entries))
	}
	if e := entries["b"]; e.Status != "failed" || !strings.Contains(e.Error, "boom") {
		t.Errorf("entry b = %+v", e)
	}
	if !entries["c"].Cached {
		t.Errorf("entry c lost its cached flag: %+v", entries["c"])
	}
	// Appends after resume land in the same file.
	j2.record(Result{Name: "d"})
	if j2.Done() != 3 {
		t.Errorf("done after resumed append = %d, want 3", j2.Done())
	}
}

// A journal written when entries still carried an error class and an
// attempt count resumes under the same plan: the reader ignores the
// fields, and each entry keeps its status and error.
func TestJournalResumesEntriesWithClassAndAttempts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	plan := KeyOf("plan-a")
	old := `{"schema":"vcoma-journal-v1","plan":"` + string(plan) + `","jobs":3}
{"job":"a","status":"done","attempts":1}
{"job":"b","status":"failed","class":"permanent","error":"b: boom","attempts":2}
{"job":"c","status":"done","cached":true}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := ResumeJournal(path, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := map[string]JournalEntry{
		"a": {Job: "a", Status: "done"},
		"b": {Job: "b", Status: "failed", Error: "b: boom"},
		"c": {Job: "c", Status: "done", Cached: true},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Fatalf("resumed entries = %+v, want %+v", entries, want)
	}
	if j.Done() != 2 || j.Failed() != 1 {
		t.Errorf("done=%d failed=%d, want 2/1", j.Done(), j.Failed())
	}
}

func TestJournalResumeRejectsDifferentPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	j, err := CreateJournal(path, KeyOf("plan-a"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, err := ResumeJournal(path, KeyOf("plan-b"), nil); err == nil {
		t.Fatal("resume against a different plan must fail")
	}
}

func TestJournalResumeMissingFile(t *testing.T) {
	if _, _, err := ResumeJournal(filepath.Join(t.TempDir(), "nope.json"), KeyOf("p"), nil); err == nil {
		t.Fatal("resume without a journal must fail: there is nothing to resume")
	}
}

func TestJournalSkipsTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	plan := KeyOf("plan-a")
	j, err := CreateJournal(path, plan, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.record(Result{Name: "a"})
	j.Close()
	// Simulate a crash mid-append: a torn, half-written trailing record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"job":"b","stat`)
	f.Close()

	j2, entries, err := ResumeJournal(path, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != 1 || entries["a"].Status != "done" {
		t.Fatalf("entries = %v, want only the intact record", entries)
	}
}

func TestJournalCompleteRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	j, err := CreateJournal(path, KeyOf("p"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.record(Result{Name: "a"})
	if err := j.Complete(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Complete must delete the journal")
	}
}

// The runner records every non-skipped completion into an attached journal.
func TestRunRecordsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.json")
	jobs := []Job{
		constJob("ok", 1),
		job("bad", func(context.Context) (int, error) { return 0, errors.New("boom") }),
	}
	jl, err := CreateJournal(path, PlanKey(jobs), len(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := Run(context.Background(), jobs, Options{Policy: CollectAll, Journal: jl})
	if runErr == nil {
		t.Fatal("want run error")
	}
	jl.Close()
	_, entries, err := ResumeJournal(path, PlanKey(jobs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if entries["ok"].Status != "done" || entries["bad"].Status != "failed" {
		t.Fatalf("entries = %v", entries)
	}
}

func TestPlanKeyDiscriminates(t *testing.T) {
	a := []Job{New("a", KeyOf(1), func(context.Context) (int, error) { return 0, nil })}
	b := []Job{New("a", KeyOf(2), func(context.Context) (int, error) { return 0, nil })}
	c := []Job{New("b", KeyOf(1), func(context.Context) (int, error) { return 0, nil })}
	if PlanKey(a) != PlanKey(a) {
		t.Error("PlanKey not stable")
	}
	if PlanKey(a) == PlanKey(b) || PlanKey(a) == PlanKey(c) {
		t.Error("PlanKey does not discriminate names/keys")
	}
}
