// Package bounded holds the one bounded table behind every replay cache,
// chunk buffer and open-run list of the tree. What those keep is not
// evidence — only the means to repeat an answer, finish a transfer or
// accept a late receipt — so it is bounded by entry count and by bytes,
// and the oldest entry goes first.
package bounded

import "iter"

// Table is an insertion-ordered map bounded by its number of entries and
// by the bytes charged to them. Whenever a Put or a Charge takes it past
// either bound it evicts its oldest entries, handing each to the eviction
// callback, until it is within both again. A Table is not safe for
// concurrent use: each owner guards it with the lock it already holds
// around the state the table belongs to.
type Table[K comparable, V any] struct {
	maxLen   int
	maxBytes int64
	evicted  func(K, V)

	m     map[K]*entry[K, V]
	bytes int64
	// root closes the ring of entries: root.next is the oldest, root.prev
	// the newest.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	bytes      int64
	prev, next *entry[K, V]
}

// New returns an empty table of at most maxLen entries and maxBytes
// charged bytes; a bound of zero or less is no bound. evicted, when not
// nil, is called with every entry the bounds push out, oldest first, while
// the caller's Put or Charge is still running; it must not use the table.
func New[K comparable, V any](maxLen int, maxBytes int64, evicted func(K, V)) *Table[K, V] {
	t := &Table[K, V]{maxLen: maxLen, maxBytes: maxBytes, evicted: evicted, m: make(map[K]*entry[K, V])}
	t.root.prev, t.root.next = &t.root, &t.root
	return t
}

// Len reports the number of entries.
func (t *Table[K, V]) Len() int { return len(t.m) }

// Bytes reports the bytes charged to the entries.
func (t *Table[K, V]) Bytes() int64 { return t.bytes }

// Get returns the value stored under k.
func (t *Table[K, V]) Get(k K) (V, bool) {
	if e, ok := t.m[k]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k. A new key goes to the back with nothing charged;
// a key already present keeps its place and its charge and takes the new
// value. A deleted key put again is new.
func (t *Table[K, V]) Put(k K, v V) {
	if e, ok := t.m[k]; ok {
		e.val = v
		return
	}
	e := &entry[K, V]{key: k, val: v, prev: t.root.prev, next: &t.root}
	e.prev.next, t.root.prev = e, e
	t.m[k] = e
	t.trim()
}

// Charge adds n bytes to the entry under k, if it is still present; for
// an absent key it does nothing.
func (t *Table[K, V]) Charge(k K, n int64) {
	e, ok := t.m[k]
	if !ok {
		return
	}
	e.bytes += n
	t.bytes += n
	t.trim()
}

// Delete removes the entry under k and returns its value. The eviction
// callback is not called.
func (t *Table[K, V]) Delete(k K) (V, bool) {
	e, ok := t.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	t.unlink(e)
	return e.val, true
}

// All yields the entries oldest first. The table must not change while
// the iteration runs.
func (t *Table[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for e := t.root.next; e != &t.root; e = e.next {
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}

func (t *Table[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	delete(t.m, e.key)
	t.bytes -= e.bytes
}

// trim evicts the oldest entries until both bounds hold.
func (t *Table[K, V]) trim() {
	for len(t.m) > 0 && ((t.maxLen > 0 && len(t.m) > t.maxLen) || (t.maxBytes > 0 && t.bytes > t.maxBytes)) {
		e := t.root.next
		t.unlink(e)
		if t.evicted != nil {
			t.evicted(e.key, e.val)
		}
	}
}
