// Boot-time durability primitives: loading a snapshot (Restore), raising
// the journal floor to the snapshot's marks (SetShardFloor), re-applying
// logged mutations (Replay) and dumping shard contents for the next
// snapshot (DumpShard). They exist for the WAL layer and share the live
// mutation paths' bookkeeping — hook-fed indexes rebuilt through Replay
// can never diverge from ones built by the original mutations, because
// both run the same hooks under the same shard lock.
package store

import "fmt"

// advanceVersion raises the global version counter to at least v —
// replayed versions were minted by a previous process, so the counter
// must move past them before new mutations allocate.
func (s *Store[T]) advanceVersion(v int64) {
	for {
		cur := s.version.Load()
		if cur >= v || s.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// journalAndHookLocked advances the shard's high-water mark, appends the
// event — its object held as the item it carries — to the bounded journal
// ring and runs the hooks: the shared core of a live emit and a boot-time
// replay.
func (s *Store[T]) journalAndHookLocked(sh *shard[T], ev WatchEvent[T], it *item[T]) {
	sh.lastVersion = ev.Version
	j := journaled[T]{typ: ev.Type, it: it, version: ev.Version}
	switch {
	case s.journalCap == 0:
		sh.evictedThrough = ev.Version
	case len(sh.journal) >= s.journalCap:
		sh.evictedThrough = sh.journal[0].version
		sh.journal[0] = journaled[T]{} // release the evicted object
		sh.journal = append(sh.journal[1:], j)
	default:
		sh.journal = append(sh.journal, j)
	}
	for _, hook := range s.hooks {
		hook(ev)
	}
}

// Restore installs one object at a known resource version — the snapshot
// half of replay-on-boot. Hooks fire with a synthetic Added event so the
// hook-fed indexes rebuild; the journal is NOT written (the mutations
// behind a snapshot are compacted away), so the shard's eviction floor
// rises to the object's version: a resume token from before it correctly
// answers ErrCompacted instead of silently skipping history.
func (s *Store[T]) Restore(obj T, version int64) error {
	key := s.name(obj)
	if key == "" {
		return fmt.Errorf("store: restored object has empty name")
	}
	idx := s.shardIndex(key)
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := &item[T]{obj: s.deepCopy(obj), version: version}
	sh.items[key] = it
	s.advanceVersion(version)
	if version > sh.lastVersion {
		sh.lastVersion = version
	}
	if version > sh.evictedThrough {
		sh.evictedThrough = version
	}
	ev := WatchEvent[T]{Type: Added, Object: it.obj, Version: version, Shard: idx}
	for _, hook := range s.hooks {
		hook(ev)
	}
	return nil
}

// SetShardFloor raises each shard's version bookkeeping to at least the
// given marks — the snapshot's per-shard high-water marks, applied before
// WAL replay so that (a) resume tokens positioned below the snapshot get
// the typed ErrCompacted answer, and (b) the global counter never re-mints
// a version the previous process already used (deleted keys leave no
// per-key trace, only the marks remember them).
func (s *Store[T]) SetShardFloor(marks []int64) error {
	if len(marks) != len(s.shards) {
		return fmt.Errorf("store: floor marks for %d shards, store has %d", len(marks), len(s.shards))
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if marks[i] > sh.lastVersion {
			sh.lastVersion = marks[i]
		}
		if marks[i] > sh.evictedThrough {
			sh.evictedThrough = marks[i]
		}
		sh.mu.Unlock()
		s.advanceVersion(marks[i])
	}
	return nil
}

// Replay re-applies one logged mutation exactly as the original emit did
// — object map, per-key version, journal ring and hooks — minus the
// watcher broadcast (nobody watches during boot). The shard coordinate is
// recomputed from the key, not trusted from the log. Events must arrive
// in per-key version order, which a log written under the shard lock
// guarantees.
func (s *Store[T]) Replay(ev WatchEvent[T]) error {
	key := s.name(ev.Object)
	if key == "" {
		return fmt.Errorf("store: replayed event has empty object name")
	}
	idx := s.shardIndex(key)
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it := &item[T]{obj: s.deepCopy(ev.Object), version: ev.Version}
	switch ev.Type {
	case Deleted:
		delete(sh.items, key)
	default:
		sh.items[key] = it
	}
	s.advanceVersion(ev.Version)
	ev.Object, ev.Shard = it.obj, idx
	s.journalAndHookLocked(sh, ev, it)
	return nil
}

// DumpShard passes every (object, version) of shard i to fn under the
// shard's read lock and returns the shard's emission high-water mark —
// the mark that tells replay which logged versions this dump covers. Like
// Range, fn sees the internal object: it must not mutate or retain it and
// must not call back into the store. The dump is exact per shard (taken
// under the lock); cross-shard consistency comes from the WAL replay rule,
// not from stopping the world.
func (s *Store[T]) DumpShard(i int, fn func(obj T, version int64)) int64 {
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, it := range sh.items {
		fn(it.obj, it.version)
	}
	return sh.lastVersion
}
