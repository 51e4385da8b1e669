// Package crashsim is the power-cut crash-consistency harness: it replays
// every prefix of a recorded fsio op trace into a shadow directory,
// materializing the on-disk states a real power cut could leave behind, and
// runs a caller-supplied recovery check against each one.
//
// The model follows ext4-style ordering semantics (the ALICE model): file
// *content* becomes durable at fsync(file); namespace operations — create,
// rename, unlink — become durable at fsync(parent dir). Between an applied
// operation and its durability point, a crash may or may not preserve it,
// and an in-flight write may land only a prefix of its bytes. For each op
// prefix the harness therefore materializes up to three crash states:
//
//	durable — only namespace ops whose parent dir was fsync'd, with each
//	          file truncated to its last-fsync'd length (the guaranteed
//	          floor: what MUST survive)
//	applied — every op landed in full (the ceiling: the no-reordering case)
//	torn    — the applied namespace, but unsynced tails half-written
//	          (the adversarial middle: torn final records, partial temps)
//
// Recovery code is correct when the check passes on all of them, for every
// prefix: nothing unsynced or torn is ever served, and whatever the journal
// promised durable is still there.
package crashsim

import (
	"fmt"
	"os"
	"path/filepath"

	"vcoma/internal/fsio"
)

// CheckFunc reopens the recovered state rooted at dir and returns an error
// if any recovery invariant is violated.
type CheckFunc func(dir string) error

// Options tunes a sweep.
type Options struct {
	// Every checks only each Every'th prefix (plus the empty and full
	// prefixes, always). 0 or 1 = every prefix.
	Every int
	// From skips every prefix shorter than From ops, the empty one too.
	From int
}

// Run sweeps every prefix of ops × every crash-state variant, materializes
// each into a fresh shadow directory under scratch, and calls check on it.
// The first failing (prefix, variant) aborts the sweep with a descriptive
// error; nil means every reachable crash state recovers.
func Run(ops []fsio.Op, scratch string, check CheckFunc) error {
	return RunOpts(ops, scratch, check, Options{})
}

// RunOpts is Run with sweep options.
func RunOpts(ops []fsio.Op, scratch string, check CheckFunc, opts Options) error {
	every := opts.Every
	if every < 1 {
		every = 1
	}
	seen := make(map[string]bool) // dedupe identical materialized states
	n := 0
	for k := 0; k <= len(ops); k++ {
		if k < opts.From || k%every != 0 && k != len(ops) {
			continue
		}
		st := replay(ops[:k])
		for _, v := range []variant{durable, applied, torn} {
			files := st.render(v)
			fp := fingerprint(files)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			n++
			dir := filepath.Join(scratch, fmt.Sprintf("crash-%04d-%s", k, v))
			if err := materialize(dir, st, files); err != nil {
				return fmt.Errorf("crashsim: materialize prefix %d/%d %s: %w", k, len(ops), v, err)
			}
			if err := check(dir); err != nil {
				return fmt.Errorf("crashsim: prefix %d/%d, %s state (%d files): %w",
					k, len(ops), v, len(files), err)
			}
			os.RemoveAll(dir)
		}
	}
	if n == 0 {
		return fmt.Errorf("crashsim: empty sweep (no ops)")
	}
	return nil
}

type variant string

const (
	durable variant = "durable"
	applied variant = "applied"
	torn    variant = "torn"
)

// inode carries a file's full applied content plus how much of it has been
// made durable by fsync. Shared between the visible and durable namespaces
// so a rename doesn't fork content.
type inode struct {
	data   []byte
	synced int
}

type state struct {
	vis  map[string]*inode // namespace after every applied op
	dur  map[string]*inode // namespace as of the last parent-dir fsync
	dirs map[string]bool
}

// replay folds a trace prefix into the model. Failed ops are skipped except
// torn writes/appends, whose recorded partial payload really landed.
func replay(ops []fsio.Op) *state {
	st := &state{vis: map[string]*inode{}, dur: map[string]*inode{}, dirs: map[string]bool{}}
	for _, op := range ops {
		if op.Err != "" && len(op.Data) == 0 {
			continue // pure failure: nothing reached the disk
		}
		switch op.Op {
		case fsio.OpMkdir:
			st.dirs[op.Path] = true
		case fsio.OpCreate:
			st.vis[op.Path] = &inode{} // truncating create
		case fsio.OpOpen:
			if _, ok := st.vis[op.Path]; !ok {
				st.vis[op.Path] = &inode{}
			}
		case fsio.OpWrite:
			ino, ok := st.vis[op.Path]
			if !ok {
				ino = &inode{}
				st.vis[op.Path] = ino
			}
			// Writes in this codebase are single whole-file writes after a
			// truncating create, so a write replaces content from offset 0.
			ino.data = append([]byte(nil), op.Data...)
			ino.synced = 0
		case fsio.OpAppend:
			ino, ok := st.vis[op.Path]
			if !ok {
				ino = &inode{}
				st.vis[op.Path] = ino
			}
			ino.data = append(ino.data, op.Data...)
		case fsio.OpFsync:
			if ino, ok := st.vis[op.Path]; ok {
				ino.synced = len(ino.data)
				// ext4 journaling: fsync of a file commits its inode and,
				// for a fresh file, the directory entry pointing at it —
				// but NOT a later rename, which still needs the dir sync.
				st.dur[op.Path] = ino
			}
		case fsio.OpRename:
			if ino, ok := st.vis[op.Path]; ok {
				delete(st.vis, op.Path)
				st.vis[op.Path2] = ino
			}
		case fsio.OpFsyncDir:
			st.syncNamespace(op.Path)
		case fsio.OpRemove:
			delete(st.vis, op.Path)
		case fsio.OpRemoveAll:
			// Model subtree removal as immediately durable: the harness's
			// recovery invariants must hold whether or not the removal
			// survived, and the durable/applied pair already covers "kept".
			for p := range st.vis {
				if p == op.Path || within(p, op.Path) {
					delete(st.vis, p)
				}
			}
			for p := range st.dur {
				if p == op.Path || within(p, op.Path) {
					delete(st.dur, p)
				}
			}
		}
	}
	return st
}

// syncNamespace makes dir's entries durable: every visible child is now in
// the durable namespace, every removed/renamed-away child is gone from it.
func (st *state) syncNamespace(dir string) {
	for p, ino := range st.vis {
		if filepath.Dir(p) == dir {
			st.dur[p] = ino
		}
	}
	for p := range st.dur {
		if filepath.Dir(p) == dir {
			if _, ok := st.vis[p]; !ok {
				delete(st.dur, p)
			}
		}
	}
}

func within(p, root string) bool {
	rel, err := filepath.Rel(root, p)
	return err == nil && rel != ".." && !escapes(rel)
}

func escapes(rel string) bool {
	return rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// render materializes one crash-state variant as path → content.
func (st *state) render(v variant) map[string][]byte {
	out := make(map[string][]byte)
	switch v {
	case durable:
		for p, ino := range st.dur {
			out[p] = append([]byte(nil), ino.data[:min(ino.synced, len(ino.data))]...)
		}
	case applied:
		for p, ino := range st.vis {
			out[p] = append([]byte(nil), ino.data...)
		}
	case torn:
		for p, ino := range st.vis {
			keep := len(ino.data)
			if ino.synced < keep {
				keep = ino.synced + (keep-ino.synced)/2
			}
			out[p] = append([]byte(nil), ino.data[:keep]...)
		}
	}
	return out
}

// fingerprint identifies a materialized state so duplicate (prefix, variant)
// states are checked once.
func fingerprint(files map[string][]byte) string {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sortStrings(paths)
	buf := make([]byte, 0, 256)
	for _, p := range paths {
		buf = append(buf, p...)
		buf = append(buf, 0)
		buf = append(buf, fmt.Sprintf("%d:", len(files[p]))...)
		buf = append(buf, files[p]...)
		buf = append(buf, 0)
	}
	return string(buf)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func materialize(dir string, st *state, files map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for d := range st.dirs {
		if filepath.IsAbs(d) {
			continue // op escaped the recorder root; nothing to shadow
		}
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	for p, data := range files {
		if filepath.IsAbs(p) {
			continue
		}
		full := filepath.Join(dir, p)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
