// Package dense provides the simulator's state tables: records indexed by a
// block, page or frame number, the way the paper's hardware reaches them —
// V-COMA's home engine indexes directory pages, a COMA-F home indexes its
// directory by physical block — rather than through a hash.
//
// A Table holds indexes below Cap in fixed-size chunks allocated on first
// touch, so a record's address never changes once created and an untouched
// stretch of the index space costs one nil pointer per chunk. Indexes at or
// beyond Cap (sparse address spaces replayed from traces) fall back to a
// map, which stays empty in generated workloads.
package dense

import (
	"math/bits"
	"slices"
)

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
	liveWords = chunkSize / 64
)

// Cap is the first index held in the map fallback rather than in chunks.
// 2^24 indexes span 2 GB of 128-byte blocks or 64 GB of 4 KB pages; the
// chunk directory covering them is at most 128 KB.
const Cap = 1 << 24

type chunk[T any] struct {
	live [liveWords]uint64
	vals [chunkSize]T
}

// Table is a sparse array of T indexed by uint64. The zero value is an empty
// table ready for use. Pointers returned by Lookup and Ensure stay valid and
// keep addressing index i's record until i is removed.
type Table[T any] struct {
	chunks []*chunk[T]
	far    map[uint64]*T
	n      int
}

// Lookup returns index i's record, or nil if i is absent.
func (t *Table[T]) Lookup(i uint64) *T {
	if ci := i >> chunkBits; ci < uint64(len(t.chunks)) {
		c := t.chunks[ci]
		if c == nil || c.live[(i&chunkMask)>>6]&(1<<(i&63)) == 0 {
			return nil
		}
		return &c.vals[i&chunkMask]
	}
	if i < Cap {
		return nil
	}
	return t.far[i]
}

// Ensure returns index i's record, creating a zero one if i is absent.
func (t *Table[T]) Ensure(i uint64) *T {
	if i >= Cap {
		return t.ensureFar(i)
	}
	ci := i >> chunkBits
	if ci >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, make([]*chunk[T], ci+1-uint64(len(t.chunks)))...)
	}
	c := t.chunks[ci]
	if c == nil {
		c = new(chunk[T])
		t.chunks[ci] = c
	}
	w, bit := (i&chunkMask)>>6, uint64(1)<<(i&63)
	if c.live[w]&bit == 0 {
		c.live[w] |= bit
		t.n++
	}
	return &c.vals[i&chunkMask]
}

func (t *Table[T]) ensureFar(i uint64) *T {
	if v := t.far[i]; v != nil {
		return v
	}
	if t.far == nil {
		t.far = make(map[uint64]*T)
	}
	v := new(T)
	t.far[i] = v
	t.n++
	return v
}

// Remove deletes index i's record, if any. A dense record is zeroed in
// place, so a pointer still held to it reads as the zero value.
func (t *Table[T]) Remove(i uint64) {
	if i >= Cap {
		if _, ok := t.far[i]; ok {
			delete(t.far, i)
			t.n--
		}
		return
	}
	ci := i >> chunkBits
	if ci >= uint64(len(t.chunks)) || t.chunks[ci] == nil {
		return
	}
	c := t.chunks[ci]
	w, bit := (i&chunkMask)>>6, uint64(1)<<(i&63)
	if c.live[w]&bit == 0 {
		return
	}
	c.live[w] &^= bit
	var zero T
	c.vals[i&chunkMask] = zero
	t.n--
}

// Len returns the number of records.
func (t *Table[T]) Len() int { return t.n }

// Each calls fn for every record in ascending index order. fn must not add
// or remove records.
func (t *Table[T]) Each(fn func(i uint64, v *T)) {
	for ci, c := range t.chunks {
		if c == nil {
			continue
		}
		for w, word := range c.live {
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				fn(uint64(ci)<<chunkBits|uint64(j), &c.vals[j])
			}
		}
	}
	if len(t.far) == 0 {
		return
	}
	far := make([]uint64, 0, len(t.far))
	for i := range t.far {
		far = append(far, i)
	}
	slices.Sort(far)
	for _, i := range far {
		fn(i, t.far[i])
	}
}
