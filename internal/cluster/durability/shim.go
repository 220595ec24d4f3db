package durability

import (
	"bytes"
	"encoding/json"
	"fmt"

	"qrio/internal/cluster/api"
	"qrio/internal/cluster/store"
	"qrio/internal/cluster/wal"
)

// walRecord is the JSON wire form of one logged mutation: the store and
// shard that emitted it, event type, resource version, object. The sink
// encodes the object in place (one marshalling pass); replay reads it raw
// and hands it to the store its tag names. Short keys keep the per-record
// framing overhead small — the WAL is the hot write path.
type walRecord[T any] struct {
	S string          `json:"s"`
	H int             `json:"h"`
	T store.EventType `json:"t"`
	V int64           `json:"v"`
	O T               `json:"o"`
}

// storeShim erases the store's element type so the manager can drive five
// heterogeneous stores through one boot/snapshot/attach flow.
type storeShim interface {
	storeName() string
	shardCount() int
	setFloor(marks []int64) error
	restore(raw json.RawMessage, version int64) error
	replay(t store.EventType, raw json.RawMessage, version int64) error
	// dumpShard serialises every object of shard i through fn and returns
	// the shard's emission high-water mark.
	dumpShard(i int, fn func(raw json.RawMessage, version int64) error) (int64, error)
	// attachSink makes w the store's log: every future mutation is written
	// to it under the mutated shard's lock. Must be called after replay (so
	// replayed events are not re-logged) and before the store serves live
	// traffic.
	attachSink(w *wal.Writer, onErr func(error))
	// eachUID passes every object's UID (and name, which for some stores is
	// also minted from the UID counter) to fn, for the boot-time UID floor.
	eachUID(fn func(uid, name string))
}

// typedShim adapts one Store[T] to the storeShim interface.
type typedShim[T any] struct {
	label string
	s     *store.Store[T]
	// uid extracts the minted identifiers from an object.
	uid func(T) (uid, name string)
	// slim, when set, picks the form of a mutated object to journal, and
	// fill completes a replayed Modified object from the resident one (the
	// nodes shim drops and restores unchanged backend bytes).
	slim func(ev store.WatchEvent[T]) T
	fill func(obj *T, resident T)
}

func (ts *typedShim[T]) storeName() string { return ts.label }
func (ts *typedShim[T]) shardCount() int   { return ts.s.Shards() }

func (ts *typedShim[T]) setFloor(marks []int64) error { return ts.s.SetShardFloor(marks) }

func (ts *typedShim[T]) restore(raw json.RawMessage, version int64) error {
	var obj T
	if err := json.Unmarshal(raw, &obj); err != nil {
		return fmt.Errorf("durability: %s snapshot object: %w", ts.label, err)
	}
	return ts.s.Restore(obj, version)
}

func (ts *typedShim[T]) replay(t store.EventType, raw json.RawMessage, version int64) error {
	var obj T
	if err := json.Unmarshal(raw, &obj); err != nil {
		return fmt.Errorf("durability: %s wal object: %w", ts.label, err)
	}
	if ts.fill != nil && t == store.Modified {
		_, name := ts.uid(obj)
		ts.s.Peek(name, func(resident T, _ int64) { ts.fill(&obj, resident) })
	}
	return ts.s.Replay(store.WatchEvent[T]{Type: t, Object: obj, Version: version})
}

func (ts *typedShim[T]) dumpShard(i int, fn func(raw json.RawMessage, version int64) error) (int64, error) {
	var ferr error
	mark := ts.s.DumpShard(i, func(obj T, version int64) {
		if ferr != nil {
			return
		}
		raw, err := json.Marshal(obj)
		if err != nil {
			ferr = fmt.Errorf("durability: %s dump: %w", ts.label, err)
			return
		}
		ferr = fn(raw, version)
	})
	return mark, ferr
}

func (ts *typedShim[T]) attachSink(w *wal.Writer, onErr func(error)) {
	ts.s.SetLog(&sink[T]{ts: ts, w: w, onErr: onErr})
}

// sink is one store's end of the shared log (a store.Log). Failures latch
// through onErr and the writer; the in-memory mutation stands.
type sink[T any] struct {
	ts    *typedShim[T]
	w     *wal.Writer
	onErr func(error)
}

func (k *sink[T]) Write(ev store.WatchEvent[T]) int64 {
	obj := ev.Object
	if k.ts.slim != nil {
		obj = k.ts.slim(ev)
	}
	rec, err := json.Marshal(walRecord[T]{S: k.ts.label, H: ev.Shard, T: ev.Type, V: ev.Version, O: obj})
	if err != nil {
		k.onErr(fmt.Errorf("durability: %s encode: %w", k.ts.label, err))
		return 0
	}
	pos, err := k.w.Write(rec)
	if err != nil {
		k.onErr(fmt.Errorf("durability: %s wal append: %w", k.ts.label, err))
	}
	return pos
}

func (k *sink[T]) Wait(pos int64) {
	if err := k.w.Wait(pos); err != nil {
		k.onErr(fmt.Errorf("durability: %s wal sync: %w", k.ts.label, err))
	}
}

// slimNodes is the nodes shim's journal filter. A Ready↔NotReady
// transition modifies a node whose ~11 KB of backend bytes do not change,
// so a Modified record carries them only when they differ from the last
// bytes journaled for that node in this process; Added records, the first Modified after a
// boot and RefreshNode's new bytes stay whole. Replay's fill reads them
// back from the resident node, which log order guarantees is there. One map
// per shard, each touched only under its shard's lock.
func slimNodes(shards int) func(store.WatchEvent[api.Node]) api.Node {
	last := make([]map[string][]byte, shards)
	for i := range last {
		last[i] = make(map[string][]byte)
	}
	return func(ev store.WatchEvent[api.Node]) api.Node {
		n, seen := ev.Object, last[ev.Shard]
		prev, ok := seen[n.Name]
		switch {
		case ev.Type == store.Deleted:
			delete(seen, n.Name)
		case ev.Type == store.Modified && ok && bytes.Equal(prev, n.Spec.BackendJSON):
			n.Spec.BackendJSON = nil
		default:
			seen[n.Name] = n.Spec.BackendJSON
		}
		return n
	}
}

func fillNode(n *api.Node, resident api.Node) {
	if n.Spec.BackendJSON == nil {
		n.Spec.BackendJSON = resident.Spec.BackendJSON
	}
}

func (ts *typedShim[T]) eachUID(fn func(uid, name string)) {
	ts.s.Range(func(obj T, _ int64) bool {
		u, n := ts.uid(obj)
		fn(u, n)
		return true
	})
}
