// Package memo is the one bounded memo: a map of at most a fixed number of
// keys. When it is full, a new key evicts the oldest-inserted key; writing a
// key it holds evicts nothing and keeps the key's age. Errors are never
// stored, and no result may depend on what a memo holds. The process-wide
// memos are built with NewShared, so that Empty and Sizes reach them all.
package memo

import "sync"

// Bounded is a map of at most a fixed number of keys, safe for concurrent
// use. Build it with New or NewShared.
type Bounded[K comparable, V any] struct {
	name     string // set for a shared memo
	capacity int

	mu   sync.Mutex
	m    map[K]V
	keys []K // keys in insertion order from head, a ring once full
	head int // the oldest key's index in a full ring
}

// New returns an empty memo of at most capacity (> 0) keys.
func New[K comparable, V any](capacity int) *Bounded[K, V] {
	return &Bounded[K, V]{capacity: capacity, m: make(map[K]V)}
}

// Get returns k's value and whether the memo holds k.
func (b *Bounded[K, V]) Get(k K) (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[k]
	return v, ok
}

// Load returns k's value, building and storing it when the memo does not
// hold k. A failed build's error is returned and nothing is stored. When
// racing builds of one key finish, the first stored value is kept and every
// caller gets it, so a key has one value however many goroutines miss it.
func (b *Bounded[K, V]) Load(k K, build func() (V, error)) (V, error) {
	if v, ok := b.Get(k); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if held, ok := b.m[k]; ok {
		return held, nil
	}
	b.admit(k)
	b.m[k] = v
	return v, nil
}

// Put stores v under k. A key the memo holds has its value replaced in
// place, keeping its age.
func (b *Bounded[K, V]) Put(k K, v V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.m[k]; !ok {
		b.admit(k)
	}
	b.m[k] = v
}

// admit makes room for a key the memo does not hold, evicting the oldest
// key when the memo is full. The caller holds mu and then stores k's value.
func (b *Bounded[K, V]) admit(k K) {
	if len(b.keys) < b.capacity {
		b.keys = append(b.keys, k)
	} else {
		delete(b.m, b.keys[b.head])
		b.keys[b.head] = k
		b.head = (b.head + 1) % b.capacity
	}
}

// Len returns how many keys the memo holds.
func (b *Bounded[K, V]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Size is a shared memo's name, how many keys it holds and its capacity.
type Size struct {
	Name     string
	Len, Cap int
}

func (b *Bounded[K, V]) size() Size { return Size{b.name, b.Len(), b.capacity} }

// empty drops every key and the storage that held them.
func (b *Bounded[K, V]) empty() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m, b.keys, b.head = make(map[K]V), nil, 0
}

// shared lists the process-wide memos in registration order. NewShared
// appends to it while packages initialise, before any goroutine can call
// Empty or Sizes, so it needs no lock.
var shared []interface {
	size() Size
	empty()
}

// NewShared returns an empty memo of at most capacity (> 0) keys,
// registered under name as one of the process-wide memos. Call it only to
// initialise a package-level variable.
func NewShared[K comparable, V any](name string, capacity int) *Bounded[K, V] {
	b := New[K, V](capacity)
	b.name = name
	shared = append(shared, b)
	return b
}

// Empty empties every shared memo, so the next lookup of every key misses.
func Empty() {
	for _, m := range shared {
		m.empty()
	}
}

// Sizes reports every shared memo in registration order.
func Sizes() []Size {
	out := make([]Size, len(shared))
	for i, m := range shared {
		out[i] = m.size()
	}
	return out
}
