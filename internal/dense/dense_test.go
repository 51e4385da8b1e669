package dense

import (
	"testing"
)

type rec struct {
	A uint64
	B bool
}

// indexes mixes the first chunk, a chunk boundary, a chunk far into the
// dense range and indexes beyond Cap.
var indexes = []uint64{0, 1, chunkSize - 1, chunkSize, 5*chunkSize + 63, Cap - 1, Cap, Cap + 1, 1 << 40}

func TestEnsureLookupRemoveLen(t *testing.T) {
	var tb Table[rec]
	for k, i := range indexes {
		if tb.Lookup(i) != nil {
			t.Fatalf("index %#x present before Ensure", i)
		}
		tb.Ensure(i).A = i + 7
		if tb.Len() != k+1 {
			t.Fatalf("Len = %d after %d Ensures", tb.Len(), k+1)
		}
	}
	// A second Ensure finds the same record and does not grow the table.
	for _, i := range indexes {
		if got := tb.Ensure(i).A; got != i+7 {
			t.Fatalf("index %#x: re-Ensure reads %d, want %d", i, got, i+7)
		}
		if got := tb.Lookup(i); got == nil || got.A != i+7 {
			t.Fatalf("index %#x: Lookup = %+v", i, got)
		}
	}
	if tb.Len() != len(indexes) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(indexes))
	}
	// Neighbours of present indexes are absent.
	for _, i := range []uint64{2, chunkSize + 1, 5 * chunkSize, Cap + 2, 1<<40 + 1} {
		if tb.Lookup(i) != nil {
			t.Fatalf("index %#x present but never ensured", i)
		}
	}
	for k, i := range indexes {
		tb.Remove(i)
		tb.Remove(i) // removing an absent index is a no-op
		if tb.Lookup(i) != nil {
			t.Fatalf("index %#x survived Remove", i)
		}
		if tb.Len() != len(indexes)-k-1 {
			t.Fatalf("Len = %d after %d Removes", tb.Len(), k+1)
		}
	}
	tb.Remove(1 << 30) // beyond every allocated chunk
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after removing an index never ensured", tb.Len())
	}
}

func TestEnsureAfterRemoveIsZeroAndLive(t *testing.T) {
	for _, i := range indexes {
		var tb Table[rec]
		old := tb.Ensure(i)
		*old = rec{A: 42, B: true}
		tb.Remove(i)
		e := tb.Ensure(i)
		if *e != (rec{}) {
			t.Fatalf("index %#x: re-Ensure after Remove reads %+v, want zero", i, *e)
		}
		if tb.Lookup(i) != e || tb.Len() != 1 {
			t.Fatalf("index %#x: re-ensured record not live (Len %d)", i, tb.Len())
		}
	}
}

func TestEachAscendingOnce(t *testing.T) {
	var tb Table[rec]
	// Insert out of order, far indexes first.
	for k := len(indexes) - 1; k >= 0; k-- {
		tb.Ensure(indexes[k]).A = indexes[k]
	}
	tb.Ensure(17)
	tb.Remove(17)
	var got []uint64
	tb.Each(func(i uint64, v *rec) {
		if v.A != i {
			t.Fatalf("Each passed index %#x with record %+v", i, *v)
		}
		got = append(got, i)
	})
	if len(got) != len(indexes) {
		t.Fatalf("Each visited %d records, want %d: %#x", len(got), len(indexes), got)
	}
	for k := range got {
		if got[k] != indexes[k] {
			t.Fatalf("Each order %#x, want %#x", got, indexes)
		}
	}
}
