package cache

// This file is the cache's undo journal, the checkpoint mechanism behind the
// parallel engine's burst phase (internal/sim/parallel.go). A full cache copy
// per round is far too expensive — a burst touches a handful of sets out of
// thousands — so the journal is set-granular and copy-on-write: while armed,
// the first access to each set saves that set's ways, and a rollback restores
// exactly the saved sets. The sequential engine's Read/Write fast paths carry
// no journal check at all; only the burst path's ReadU/WriteU variants do.

// undoLog holds one cache's journal, reused across rounds. mark stamps the
// round epoch each set was last saved in, so arming is O(1) instead of
// clearing a per-set bitmap.
type undoLog struct {
	mark  []uint32
	epoch uint32

	sets  []int32 // saved set indexes, in first-touch order
	lines []line  // flat ways-sized runs, parallel to sets
	stats Stats
}

// ArmUndo opens a checkpoint: subsequent ReadU/WriteU calls journal each
// set before first mutating it, until RollbackUndo or DisarmUndo. Arming
// again discards the previous journal.
func (c *Cache) ArmUndo() {
	u := c.undo
	if u == nil {
		u = &undoLog{mark: make([]uint32, c.Sets())}
		c.undo = u
	}
	u.epoch++
	if u.epoch == 0 { // epoch wrapped: stale marks could alias, reset them
		clear(u.mark)
		u.epoch = 1
	}
	u.sets = u.sets[:0]
	u.lines = u.lines[:0]
	u.stats = c.stats
	c.undoArmed = true
}

func (c *Cache) saveSet(set int) {
	u := c.undo
	if u.mark[set] == u.epoch {
		return
	}
	u.mark[set] = u.epoch
	base := set * c.ways
	u.sets = append(u.sets, int32(set))
	u.lines = append(u.lines, c.lines[base:base+c.ways]...)
}

// ReadU is Read for the burst path: with the journal armed it saves the
// accessed set first, so the access can be rolled back.
func (c *Cache) ReadU(a uint64) Result {
	if c.undoArmed {
		c.saveSet(int((a >> c.blockBits) & c.setMask))
	}
	return c.Read(a)
}

// WriteU is Write for the burst path; see ReadU.
func (c *Cache) WriteU(a uint64) Result {
	if c.undoArmed {
		c.saveSet(int((a >> c.blockBits) & c.setMask))
	}
	return c.Write(a)
}

// RollbackUndo restores every journaled set and the statistics captured at
// ArmUndo, closing the checkpoint. The cache is bit-identical to its state
// when the journal was armed, provided every mutation since went through
// ReadU/WriteU.
func (c *Cache) RollbackUndo() {
	u := c.undo
	if u == nil || !c.undoArmed {
		return
	}
	for k, set := range u.sets {
		base, off := int(set)*c.ways, k*c.ways
		copy(c.lines[base:base+c.ways], u.lines[off:off+c.ways])
	}
	c.stats = u.stats
	c.undoArmed = false
}

// DisarmUndo closes the checkpoint keeping all mutations (a committed
// burst). Safe to call with no checkpoint open.
func (c *Cache) DisarmUndo() { c.undoArmed = false }
