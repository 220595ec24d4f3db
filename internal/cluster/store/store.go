// Package store provides the versioned, watchable, in-memory object store
// backing the QRIO API server — the role etcd plays under a Kubernetes API
// server. Every mutation bumps a monotonically increasing resource version
// and is handed to synchronous hooks (the state layer's hook-fed indexes)
// and broadcast to watchers (the watch hub's resumable streams).
//
// The store is hash-partitioned into shards, each with its own lock, so
// mutations of different objects proceed in parallel — the single global
// mutex was the contention point under batched dispatch. Resource versions
// come from one atomic counter shared by every shard, so versions stay
// globally unique and per-key monotone (a key always lives on one shard,
// and its version is assigned under that shard's lock). Watchers receive
// one merged stream: events for the same key arrive in version order;
// events for different keys may interleave out of version order, exactly
// like a Kubernetes watch across resources.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// EventType classifies a watch event.
type EventType string

const (
	Added    EventType = "ADDED"
	Modified EventType = "MODIFIED"
	Deleted  EventType = "DELETED"
)

// WatchEvent is one change notification. Shard is the index of the shard
// that emitted it — the coordinate consumers track to build resume marks
// (per-key and per-shard event order is monotone; cross-shard order is
// not, so exact resumption needs one high-water mark per shard).
type WatchEvent[T any] struct {
	Type    EventType
	Object  T
	Version int64
	Shard   int
}

// DefaultShards is the shard count used by New. Sixteen keeps per-shard
// maps small on the paper's 100-node fleet while leaving headroom for
// concurrent writers on many-core hosts.
const DefaultShards = 16

// DefaultJournalCap bounds how many recent events each shard's version
// journal retains for watch resumption. A dropped SSE client typically
// reconnects within seconds; at cluster mutation rates that is far fewer
// events than this, so resume almost always replays instead of forcing a
// full re-List.
const DefaultJournalCap = 1024

// ErrCompacted signals that a Watch position has aged out of the version
// journal: events after its marks were already evicted, so an exact
// replay is impossible and the caller must fall back to a full re-List
// (the Kubernetes "410 Gone" contract).
var ErrCompacted = errors.New("store: watch history compacted; re-List required")

// shard is one lock-protected partition of the key space.
type shard[T any] struct {
	mu    sync.RWMutex
	items map[string]*item[T]
	// journal is the shard's bounded ring of recent watch events, in
	// version order (versions are assigned under this shard's lock).
	// evictedThrough is the highest version dropped from the ring — a
	// Watch from below it cannot replay exactly and gets ErrCompacted.
	// lastVersion is the shard's emission high-water mark.
	journal        []journaled[T]
	evictedThrough int64
	lastVersion    int64
}

// item is an installed object at its resource version. It is never
// mutated: an update installs a fresh item, so the shard's map and the
// journal entries of every version share their objects.
type item[T any] struct {
	obj     T
	version int64
}

// journaled is one journal entry: a watch event whose object is held by
// reference.
type journaled[T any] struct {
	typ     EventType
	it      *item[T]
	version int64 // the event's; a deletion's is newer than its item's
}

// Store is a thread-safe, versioned map of named objects of one kind.
// DeepCopy isolation: objects are copied on the way in and out, so callers
// can never mutate stored state except through Update. An installed object
// is never mutated in place — an update installs a fresh copy — which is
// what lets a mutation's watch event carry the installed object itself
// rather than a second copy, and the journal ring keep each version once.
type Store[T any] struct {
	shards     []shard[T]
	version    atomic.Int64
	deepCopy   func(T) T
	name       func(T) string
	journalCap int

	watchMu  sync.RWMutex
	watchers map[int]chan WatchEvent[T]
	nextWID  int

	// hooks are synchronous per-mutation callbacks (see OnEvent). They are
	// registered at construction time and never mutated afterwards, so
	// mutation paths read them without additional locking.
	hooks []func(WatchEvent[T])

	log Log[T] // the durable journal (see SetLog); nil = purely in-memory
}

// Log is the durable journal behind a store. Write is called with every
// mutation under the mutated shard's lock, before hooks and watchers see
// it — so log order is version order per shard, and whatever an observer
// writes in reaction lands later in the log — and returns the record's
// position; Wait blocks until that position is on disk. Failures are the
// journal's to latch and report: the in-memory mutation stands either way.
type Log[T any] interface {
	Write(ev WatchEvent[T]) int64
	Wait(pos int64)
}

// SetLog attaches the journal: before the store is shared between
// goroutines, after boot-time Replay (replayed events are not logged again).
func (s *Store[T]) SetLog(l Log[T]) { s.log = l }

// wait ends every exported mutator: a mutating call that returns is on disk.
func (s *Store[T]) wait(pos int64) {
	if s.log != nil {
		s.log.Wait(pos)
	}
}

// NoWait is a view of a store whose mutators write their log record but
// return without waiting for the disk; the caller owns the wait and must
// not acknowledge the writes outside the process before it. Only the state
// layer takes one (make lint-sync), ending each sequence in Cluster.Sync.
type NoWait[T any] struct{ s *Store[T] }

func (s *Store[T]) NoWait() NoWait[T] { return NoWait[T]{s} }

func (n NoWait[T]) Create(obj T) (int64, error) {
	v, _, err := n.s.create(obj)
	return v, err
}

func (n NoWait[T]) Update(name string, mutate func(T) (T, error)) (T, int64, error) {
	next, v, _, err := n.s.update(name, nil, mutate)
	return next, v, err
}

func (n NoWait[T]) UpdateFunc(name string, check func(obj T, version int64) error, mutate func(T) (T, error)) (T, int64, error) {
	next, v, _, err := n.s.update(name, check, mutate)
	return next, v, err
}

// New creates a store for objects of type T with DefaultShards partitions.
// deepCopy must return an independent copy; name must return the object key.
func New[T any](deepCopy func(T) T, name func(T) string) *Store[T] {
	return NewSharded(deepCopy, name, DefaultShards)
}

// NewSharded creates a store with an explicit shard count (minimum 1).
func NewSharded[T any](deepCopy func(T) T, name func(T) string, shards int) *Store[T] {
	if shards < 1 {
		shards = 1
	}
	s := &Store[T]{
		shards:     make([]shard[T], shards),
		deepCopy:   deepCopy,
		name:       name,
		journalCap: DefaultJournalCap,
		watchers:   make(map[int]chan WatchEvent[T]),
	}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*item[T])
	}
	return s
}

// SetJournalCap resizes the per-shard version journal; at 0 the store keeps
// none and every Watch from behind a mutation is compacted. Like OnEvent, it
// must be called before the store is shared between goroutines; tests
// shrink it to force compaction cheaply.
func (s *Store[T]) SetJournalCap(n int) {
	s.journalCap = max(n, 0)
}

// shardIndex maps a key to its shard index (FNV-1a).
func (s *Store[T]) shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// shardFor maps a key to its shard.
func (s *Store[T]) shardFor(key string) *shard[T] {
	return &s.shards[s.shardIndex(key)]
}

// Shards returns the store's shard count — the length of a resume-mark
// vector (see Watch).
func (s *Store[T]) Shards() int { return len(s.shards) }

// OnEvent registers a synchronous hook invoked for every mutation, under
// the mutated shard's lock and before watchers are notified — the seam
// incremental indexes (the pending-job queue, the event-by-About index)
// hang off. Hooks must be registered before the store is shared between
// goroutines, must not call back into this store, and may retain ev.Object
// but never mutate it: it is the installed object, shared with the journal
// and every watcher.
func (s *Store[T]) OnEvent(fn func(ev WatchEvent[T])) {
	s.hooks = append(s.hooks, fn)
}

// ErrNotFound is returned for missing objects.
type ErrNotFound struct{ Name string }

func (e ErrNotFound) Error() string { return fmt.Sprintf("store: %q not found", e.Name) }

// ErrExists is returned when creating a duplicate.
type ErrExists struct{ Name string }

func (e ErrExists) Error() string { return fmt.Sprintf("store: %q already exists", e.Name) }

// Create inserts a new object and returns its resource version.
func (s *Store[T]) Create(obj T) (int64, error) {
	v, pos, err := s.create(obj)
	s.wait(pos)
	return v, err
}

func (s *Store[T]) create(obj T) (v, pos int64, err error) {
	key := s.name(obj)
	if key == "" {
		return 0, 0, fmt.Errorf("store: object has empty name")
	}
	idx := s.shardIndex(key)
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.items[key]; ok {
		return 0, 0, ErrExists{key}
	}
	v = s.version.Add(1)
	it := &item[T]{obj: s.deepCopy(obj), version: v}
	sh.items[key] = it
	pos = s.emitLocked(idx, Added, it, v)
	return v, pos, nil
}

// Get returns a copy of the named object.
func (s *Store[T]) Get(name string) (T, int64, error) {
	sh := s.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it, ok := sh.items[name]
	if !ok {
		var zero T
		return zero, 0, ErrNotFound{name}
	}
	return s.deepCopy(it.obj), it.version, nil
}

// Peek passes the named object and its resource version to fn without
// copying, under the shard read lock, and reports whether the object
// exists — the cheap path for reading one field of a large object. Like
// Range's callback, fn must not mutate or retain the object and must not
// call back into the store.
func (s *Store[T]) Peek(name string, fn func(obj T, version int64)) bool {
	sh := s.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it, ok := sh.items[name]
	if ok {
		fn(it.obj, it.version)
	}
	return ok
}

// List returns copies of all objects (order unspecified, never nil — an
// empty store lists as an empty JSON array, not null).
func (s *Store[T]) List() []T {
	out := make([]T, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, it := range sh.items {
			out = append(out, s.deepCopy(it.obj))
		}
		sh.mu.RUnlock()
	}
	return out
}

// ListFunc returns copies of the objects keep accepts. The predicate runs
// against the store's internal object under the shard read lock, so
// rejected objects are never deep-copied — the cheap path for phase- or
// owner-filtered scans. keep must not mutate or retain its argument and
// must not call back into the store.
func (s *Store[T]) ListFunc(keep func(T) bool) []T {
	out := make([]T, 0, 8)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, it := range sh.items {
			if keep(it.obj) {
				out = append(out, s.deepCopy(it.obj))
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Range iterates the store without copying, passing each internal object
// and its resource version to fn under the shard read lock; returning
// false stops the walk. Like ListFunc's predicate, fn must not mutate or
// retain the object and must not call back into the store. Iteration
// across shards is not a point-in-time snapshot: mutations racing the walk
// may or may not be observed.
func (s *Store[T]) Range(fn func(obj T, version int64) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, it := range sh.items {
			if !fn(it.obj, it.version) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Len returns the object count.
func (s *Store[T]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// Update applies mutate to the named object atomically. The callback
// receives a private copy; returning an error aborts without change. The
// callback runs under the object's shard lock, so it must not call back
// into this store (other stores are fine only if no lock cycle exists —
// prefer hoisting cross-store reads out of the callback).
func (s *Store[T]) Update(name string, mutate func(T) (T, error)) (T, int64, error) {
	next, v, pos, err := s.update(name, nil, mutate)
	s.wait(pos)
	return next, v, err
}

// UpdateFunc applies mutate to the named object only if check accepts the
// current object and its resource version — the compare-and-swap primitive
// behind optimistic-concurrency transactions (DeleteFunc's pattern, for
// updates). check runs under the shard lock against the internal object
// (no copy); returning an error aborts the update and surfaces that error
// unchanged, so callers can type their own conflict. Like Update's
// callback, neither function may mutate or retain the pre-copy object nor
// call back into this store. "Bind iff the job's version is unchanged" is
// atomic with respect to every concurrent writer: N version-conditional
// binders racing the same pending job resolve to exactly one winner.
func (s *Store[T]) UpdateFunc(name string, check func(obj T, version int64) error, mutate func(T) (T, error)) (T, int64, error) {
	next, v, pos, err := s.update(name, check, mutate)
	s.wait(pos)
	return next, v, err
}

// update is the shared body of Update (nil check) and UpdateFunc.
func (s *Store[T]) update(name string, check func(obj T, version int64) error, mutate func(T) (T, error)) (next T, v, pos int64, err error) {
	var zero T
	idx := s.shardIndex(name)
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.items[name]
	if !ok {
		return zero, 0, 0, ErrNotFound{name}
	}
	if check != nil {
		if err := check(cur.obj, cur.version); err != nil {
			return zero, 0, 0, err
		}
	}
	next, err = mutate(s.deepCopy(cur.obj))
	if err != nil {
		return zero, 0, 0, err
	}
	if s.name(next) != name {
		return zero, 0, 0, fmt.Errorf("store: update may not rename %q to %q", name, s.name(next))
	}
	v = s.version.Add(1)
	// next goes back to the caller, who may keep changing it.
	it := &item[T]{obj: s.deepCopy(next), version: v}
	sh.items[name] = it
	pos = s.emitLocked(idx, Modified, it, v)
	return next, v, pos, nil
}

// Delete removes the named object.
func (s *Store[T]) Delete(name string) error {
	return s.DeleteFunc(name, func(T, int64) error { return nil })
}

// DeleteFunc removes the named object only if check accepts it. The
// callback runs under the shard lock against the internal object (no
// copy) and its current resource version; returning an error aborts the
// delete and surfaces that error. Like Update's callback, check must not
// mutate or retain the object and must not call back into this store.
// This is the archive sweep's primitive: "delete iff still the terminal
// object I decided to archive" is atomic with respect to concurrent
// cancels, retries and requeues.
func (s *Store[T]) DeleteFunc(name string, check func(obj T, version int64) error) error {
	var pos int64
	defer func() { s.wait(pos) }() // deferred first, so it runs after the unlock
	idx := s.shardIndex(name)
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.items[name]
	if !ok {
		return ErrNotFound{name}
	}
	if err := check(it.obj, it.version); err != nil {
		return err
	}
	delete(sh.items, name)
	pos = s.emitLocked(idx, Deleted, it, s.version.Add(1))
	return nil
}

// Watch returns a stream of change events starting at a position, plus
// the per-shard marks it starts at and a cancel function. Given marks (as
// returned here and advanced per received event via WatchEvent.Shard), it
// first replays, from the per-shard journals, every event beyond them —
// the resume primitive behind /v1/watch tokens; given nil, it starts now
// and returns the exact marks of "now". Marks are per shard because
// cross-shard delivery order is not version order: a single scalar
// position could skip a slow shard's older event. If a shard has already
// evicted events past its mark — or the vector's length does not match the
// shard count — the exact replay is impossible and Watch returns
// ErrCompacted; the caller must fall back to a full re-List.
//
// A stream never thins: a consumer that falls more than buffer events
// behind the live tail has its channel closed, and resumes from its last
// marks. The replayed prefix is in version order; on the live tail events
// for different keys may interleave out of version order, per-key (and
// per-shard) order is preserved throughout.
func (s *Store[T]) Watch(from []int64, buffer int) (<-chan WatchEvent[T], []int64, func(), error) {
	if buffer <= 0 {
		buffer = 256
	}
	if from != nil && len(from) != len(s.shards) {
		return nil, nil, nil, ErrCompacted
	}
	// Every shard's read lock is held from the first journal read until
	// the watcher is registered: no event can be emitted in between, so
	// the replay and the live tail meet exactly, with no gap and no
	// overlap.
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.RUnlock()
		}
	}()
	marks := make([]int64, len(s.shards))
	next := make([]int, len(s.shards)) // per shard: first journal entry to replay
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		if from == nil {
			marks[i] = sh.lastVersion
			next[i] = len(sh.journal)
			continue
		}
		if sh.evictedThrough > from[i] {
			return nil, nil, nil, ErrCompacted
		}
		marks[i] = from[i]
		next[i] = sort.Search(len(sh.journal), func(k int) bool { return sh.journal[k].version > from[i] })
		total += len(sh.journal) - next[i]
	}
	ch := make(chan WatchEvent[T], total+buffer)
	// Merge the shards' journal tails, each already in version order.
	for ; total > 0; total-- {
		best := -1
		for i := range s.shards {
			if next[i] < len(s.shards[i].journal) && (best < 0 ||
				s.shards[i].journal[next[i]].version < s.shards[best].journal[next[best]].version) {
				best = i
			}
		}
		j := s.shards[best].journal[next[best]]
		next[best]++
		ch <- WatchEvent[T]{Type: j.typ, Object: j.it.obj, Version: j.version, Shard: best}
	}
	s.watchMu.Lock()
	id := s.nextWID
	s.nextWID++
	s.watchers[id] = ch
	s.watchMu.Unlock()
	cancel := func() {
		s.watchMu.Lock()
		s.dropLocked(id)
		s.watchMu.Unlock()
	}
	return ch, marks, cancel, nil
}

// dropLocked unregisters and closes a watcher if it is still registered.
// The caller holds watchMu for writing.
func (s *Store[T]) dropLocked(id int) {
	if ch, ok := s.watchers[id]; ok {
		delete(s.watchers, id)
		close(ch)
	}
}

// emitLocked writes the event to the log (returning its position), then
// journals it, runs hooks and broadcasts to watchers while the mutated
// shard's lock is held. A watcher whose buffer is full is closed, so its
// consumer resumes from its marks rather than silently missing the event.
// Holding the shard lock across delivery keeps same-key events ordered.
func (s *Store[T]) emitLocked(idx int, typ EventType, it *item[T], v int64) (pos int64) {
	ev := WatchEvent[T]{Type: typ, Object: it.obj, Version: v, Shard: idx}
	if s.log != nil {
		pos = s.log.Write(ev)
	}
	sh := &s.shards[idx]
	s.journalAndHookLocked(sh, ev, it)
	var overflowed []int
	s.watchMu.RLock()
	for id, ch := range s.watchers {
		select {
		case ch <- ev:
		default:
			overflowed = append(overflowed, id)
		}
	}
	s.watchMu.RUnlock()
	if overflowed != nil {
		s.watchMu.Lock()
		for _, id := range overflowed {
			s.dropLocked(id)
		}
		s.watchMu.Unlock()
	}
	return pos
}

// Version returns the store's latest resource version.
func (s *Store[T]) Version() int64 {
	return s.version.Load()
}
