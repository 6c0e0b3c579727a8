package bounded

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

type kv struct {
	k string
	v int
}

// collect lists a table's entries oldest first.
func collect(t *Table[string, int]) []kv {
	var out []kv
	for k, v := range t.All() {
		out = append(out, kv{k, v})
	}
	return out
}

func TestTableEvictsOldestByCount(t *testing.T) {
	var gone []kv
	tab := New(2, 0, func(k string, v int) { gone = append(gone, kv{k, v}) })
	tab.Put("a", 1)
	tab.Put("b", 2)
	tab.Put("c", 3)
	if want := []kv{{"a", 1}}; !slices.Equal(gone, want) {
		t.Fatalf("evicted %v, want %v", gone, want)
	}
	if want := []kv{{"b", 2}, {"c", 3}}; !slices.Equal(collect(tab), want) {
		t.Fatalf("table holds %v, want %v", collect(tab), want)
	}
	if _, ok := tab.Get("a"); ok {
		t.Fatal("evicted key still found")
	}
	if v, ok := tab.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) = %d, %v", v, ok)
	}
}

func TestTablePutReplacesInPlace(t *testing.T) {
	tab := New[string, int](2, 0, nil)
	tab.Put("a", 1)
	tab.Charge("a", 5)
	tab.Put("b", 2)
	tab.Put("a", 10)
	if want := []kv{{"a", 10}, {"b", 2}}; !slices.Equal(collect(tab), want) {
		t.Fatalf("table holds %v, want %v", collect(tab), want)
	}
	if tab.Bytes() != 5 {
		t.Fatalf("replacing a value changed the charge: %d bytes", tab.Bytes())
	}
	// The replaced key kept its place at the front, so it goes first.
	tab.Put("c", 3)
	if want := []kv{{"b", 2}, {"c", 3}}; !slices.Equal(collect(tab), want) {
		t.Fatalf("table holds %v, want %v", collect(tab), want)
	}
	if tab.Bytes() != 0 {
		t.Fatalf("evicted entry's charge kept: %d bytes", tab.Bytes())
	}
}

func TestTableEvictsOldestByBytes(t *testing.T) {
	var gone []string
	tab := New(0, 10, func(k string, _ int) { gone = append(gone, k) })
	for _, k := range []string{"a", "b", "c"} {
		tab.Put(k, 0)
		tab.Charge(k, 4)
	}
	// 12 bytes > 10: the oldest goes, whichever entry was charged.
	if !slices.Equal(gone, []string{"a"}) || tab.Bytes() != 8 || tab.Len() != 2 {
		t.Fatalf("evicted %v, %d entries, %d bytes", gone, tab.Len(), tab.Bytes())
	}
	// An entry charged past the bound on its own leaves with all before it.
	tab.Charge("c", 7)
	if !slices.Equal(gone, []string{"a", "b", "c"}) || tab.Len() != 0 || tab.Bytes() != 0 {
		t.Fatalf("evicted %v, %d entries, %d bytes", gone, tab.Len(), tab.Bytes())
	}
}

func TestTableChargeAbsentIsNoop(t *testing.T) {
	tab := New[string, int](0, 10, nil)
	tab.Charge("x", 100)
	if tab.Bytes() != 0 || tab.Len() != 0 {
		t.Fatalf("charge of an absent key booked %d bytes, %d entries", tab.Bytes(), tab.Len())
	}
	tab.Put("x", 1)
	tab.Charge("x", 3)
	if v, ok := tab.Delete("x"); !ok || v != 1 {
		t.Fatalf("Delete = %d, %v", v, ok)
	}
	if tab.Bytes() != 0 {
		t.Fatalf("deleted entry's charge kept: %d bytes", tab.Bytes())
	}
	tab.Charge("x", 3)
	if tab.Bytes() != 0 {
		t.Fatalf("charge after delete booked %d bytes", tab.Bytes())
	}
	if _, ok := tab.Delete("x"); ok {
		t.Fatal("second Delete found the key")
	}
}

func TestTableAllStops(t *testing.T) {
	tab := New[string, int](0, 0, nil)
	for i := range 5 {
		tab.Put(fmt.Sprint(i), i)
	}
	n := 0
	for range tab.All() {
		if n++; n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("iteration ran %d steps after break", n)
	}
}

// model is the naive reference a Table is checked against: a slice in
// insertion order, scanned linearly.
type model struct {
	maxLen   int
	maxBytes int64
	entries  []modelEntry
	evicted  []kv
}

type modelEntry struct {
	k     string
	v     int
	bytes int64
}

func (m *model) find(k string) int {
	return slices.IndexFunc(m.entries, func(e modelEntry) bool { return e.k == k })
}

func (m *model) total() (n int64) {
	for _, e := range m.entries {
		n += e.bytes
	}
	return n
}

func (m *model) put(k string, v int) {
	if i := m.find(k); i >= 0 {
		m.entries[i].v = v
		return
	}
	m.entries = append(m.entries, modelEntry{k: k, v: v})
	m.trim()
}

func (m *model) charge(k string, n int64) {
	if i := m.find(k); i >= 0 {
		m.entries[i].bytes += n
		m.trim()
	}
}

func (m *model) delete(k string) {
	if i := m.find(k); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
}

func (m *model) trim() {
	for len(m.entries) > 0 && ((m.maxLen > 0 && len(m.entries) > m.maxLen) || (m.maxBytes > 0 && m.total() > m.maxBytes)) {
		m.evicted = append(m.evicted, kv{m.entries[0].k, m.entries[0].v})
		m.entries = m.entries[1:]
	}
}

// TestTableMatchesModel drives a Table and the naive model with the same
// seeded random Put/Charge/Delete/Get sequence; after every step the
// survivors (in order), the evictions (in order) and the byte total must
// agree. Keys come from a small pool, so deleted and evicted keys are put
// again and must go to the back.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &model{maxLen: 1 + rng.Intn(8), maxBytes: int64(rng.Intn(64))}
		var evicted []kv
		tab := New(m.maxLen, m.maxBytes, func(k string, v int) { evicted = append(evicted, kv{k, v}) })
		for step := 0; step < 2000; step++ {
			k := fmt.Sprint("k", rng.Intn(12))
			op := rng.Intn(10)
			switch {
			case op < 4:
				v := rng.Int()
				tab.Put(k, v)
				m.put(k, v)
			case op < 7:
				n := int64(rng.Intn(16))
				tab.Charge(k, n)
				m.charge(k, n)
			case op < 9:
				got, ok := tab.Delete(k)
				i := m.find(k)
				if ok != (i >= 0) || (ok && got != m.entries[i].v) {
					t.Fatalf("seed %d step %d: Delete(%s) = %d, %v", seed, step, k, got, ok)
				}
				m.delete(k)
			default:
				got, ok := tab.Get(k)
				i := m.find(k)
				if ok != (i >= 0) || (ok && got != m.entries[i].v) {
					t.Fatalf("seed %d step %d: Get(%s) = %d, %v", seed, step, k, got, ok)
				}
			}
			var want []kv
			for _, e := range m.entries {
				want = append(want, kv{e.k, e.v})
			}
			if got := collect(tab); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: table holds %v, model %v", seed, step, got, want)
			}
			if !slices.Equal(evicted, m.evicted) {
				t.Fatalf("seed %d step %d: evicted %v, model %v", seed, step, evicted, m.evicted)
			}
			if tab.Bytes() != m.total() || tab.Len() != len(m.entries) {
				t.Fatalf("seed %d step %d: %d entries, %d bytes; model %d, %d",
					seed, step, tab.Len(), tab.Bytes(), len(m.entries), m.total())
			}
		}
	}
}
