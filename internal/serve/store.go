package serve

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vcoma/internal/fsio"
	"vcoma/internal/runner"
)

// Store promotes the runner's content-addressed cache to the service's
// shared artifact store: every finished simulation is one checksummed,
// quarantine-guarded cache entry, deduplicated across clients by
// construction (the key hashes the inputs, not the requester), with a
// size-bounded LRU layered on top so a long-lived server doesn't grow its
// disk footprint without bound.
//
// The LRU index is advisory, not authoritative: entries live on disk in the
// cache's own layout, and a rebooted server reseeds recency from file
// mtimes. Evicting an entry that a concurrent reader is fetching is safe —
// cache entries are only ever atomically replaced or unlinked, so the
// reader sees either the old valid bytes or a plain miss (and a miss just
// means the cell is recomputed on next request).
type Store struct {
	cache *runner.Cache
	fs    *fsio.FS

	mu       sync.Mutex
	maxBytes int64
	total    int64
	lru      *list.List                   // front = most recent
	index    map[runner.Key]*list.Element // value: *entry
	evicted  uint64
}

type entry struct {
	key  runner.Key
	size int64
}

// OpenStore opens (creating if needed) an artifact store rooted at dir,
// bounded to maxBytes of entry payload (0 = unbounded). Existing entries
// are indexed by modification time so recency survives restarts.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	return OpenStoreFS(dir, maxBytes, nil)
}

// OpenStoreFS is OpenStore through an explicit filesystem seam (nil = plain
// durable I/O): artifact puts, evictions and quarantines become
// fault-injectable and op-traced.
func OpenStoreFS(dir string, maxBytes int64, fs *fsio.FS) (*Store, error) {
	c, err := runner.OpenCacheFS(dir, fs)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cache:    c,
		fs:       fs,
		maxBytes: maxBytes,
		lru:      list.New(),
		index:    map[runner.Key]*list.Element{},
	}
	if err := s.reindex(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked(runner.Key(""))
	s.mu.Unlock()
	return s, nil
}

// Cache exposes the underlying runner cache so the worker's runner.Run can
// write results straight into the store.
func (s *Store) Cache() *runner.Cache { return s.cache }

// Contains reports whether key's artifact file exists on disk right now.
// The worker uses it to detect a swallowed store write (runner.Run treats a
// failed Put as non-fatal) so degraded-mode serving can take over.
func (s *Store) Contains(key runner.Key) bool {
	_, err := os.Stat(s.cache.EntryPath(key))
	return err == nil
}

// reindex scans the cache directory and seeds the LRU from file mtimes
// (oldest = least recent). Only the cache's own two-hex-digit shard layout
// is consulted; quarantine and metrics sidecars are skipped.
func (s *Store) reindex() error {
	type onDisk struct {
		key   runner.Key
		size  int64
		mtime int64
	}
	var found []onDisk
	shards, err := os.ReadDir(s.cache.Dir())
	if err != nil {
		return err
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.cache.Dir(), sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".metrics.json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			key := runner.Key(strings.TrimSuffix(name, ".json"))
			found = append(found, onDisk{key: key, size: info.Size(), mtime: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range found {
		el := s.lru.PushFront(&entry{key: e.key, size: e.size})
		s.index[e.key] = el
		s.total += e.size
	}
	return nil
}

// GetRaw fetches the stored artifact bytes for key exactly as written —
// the byte-identity guarantee the API's result endpoint serves — and marks
// the entry most recently used. Corrupt entries are quarantined by the
// underlying cache and surface as plain misses.
func (s *Store) GetRaw(key runner.Key) (json.RawMessage, bool) {
	raw, ok := s.cache.GetRaw(key)
	s.mu.Lock()
	if el, seen := s.index[key]; seen {
		if ok {
			s.lru.MoveToFront(el)
		} else {
			// The file vanished or was quarantined underneath us: drop it
			// from the accounting.
			s.removeLocked(el)
		}
	}
	s.mu.Unlock()
	return raw, ok
}

// Note records that key was just written to the underlying cache (by the
// worker's runner.Run), accounts its size, and evicts least-recently-used
// entries until the store fits its budget. The entry just noted is never
// its own eviction victim.
func (s *Store) Note(key runner.Key) {
	info, err := os.Stat(s.cache.EntryPath(key))
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok {
		// Overwrite: adjust the accounted size.
		e := el.Value.(*entry)
		s.total += info.Size() - e.size
		e.size = info.Size()
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&entry{key: key, size: info.Size()})
		s.index[key] = el
		s.total += info.Size()
	}
	s.evictLocked(key)
}

// evictLocked drops LRU entries until total <= maxBytes, sparing keep.
func (s *Store) evictLocked(keep runner.Key) {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes && s.lru.Len() > 0 {
		el := s.lru.Back()
		e := el.Value.(*entry)
		if e.key == keep {
			if s.lru.Len() == 1 {
				return // a single oversized entry is kept: it is the working set
			}
			el = el.Prev()
			e = el.Value.(*entry)
		}
		if err := s.cache.Remove(e.key); err != nil {
			// The unlink failed and the bytes are still on disk: keep the
			// entry accounted (accounting must track reality, not intent) and
			// stop evicting — a dying disk does not get better inside this
			// loop, and the next Note retries.
			return
		}
		s.removeLocked(el)
		s.evicted++
	}
}

func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.index, e.key)
	s.total -= e.size
}

// StoreStats is the store's introspection snapshot.
type StoreStats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	Evicted     uint64 `json:"evicted"`
	Quarantined int    `json:"quarantined"`
}

// Snapshot reports size, occupancy and eviction tallies.
func (s *Store) Snapshot() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		Entries:  s.lru.Len(),
		Bytes:    s.total,
		MaxBytes: s.maxBytes,
		Evicted:  s.evicted,
	}
	s.mu.Unlock()
	st.Quarantined = s.cache.Quarantined()
	return st
}
