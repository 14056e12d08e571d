// Package stats provides counters, named statistic sets, distributions and
// time series used by every simulator component. All containers are plain
// (non-atomic): the simulation engine serialises accesses, so no locking is
// required on the hot path.
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Slot is a declared counter's dense index into a Set built by FromTable.
// A component declares its counters once, as Slot constants with a keyed
// name table, so counting an event is a slice index with no hashing.
type Slot int

// counter is one slot's value and whether anything has added to it.
type counter struct {
	n       int64
	touched bool
}

// Set is a named collection of integer counters held in dense slots. A
// set built by FromTable starts with one slot per declared name, reached
// by Slot on the hot path; Add and Inc by name reach the same slots by a
// linear name lookup and append a slot for a name not seen before, which
// is how report sets gain names on the cold path. A counter renders once
// anything has added to it, even zero; rendering sorts by name, so dumps
// are deterministic.
type Set struct {
	name  string
	names []string // slot -> counter name
	slots []counter
}

// NewSet returns an empty counter set with the given name.
func NewSet(name string) *Set { return &Set{name: name} }

// FromTable returns a set with one slot per entry of names, slot i being
// counter names[i]; the set shares the table and never writes to it. It
// panics on an empty or duplicate name: either is a gap or a typo in a
// component's keyed name table.
func FromTable(name string, names []string) *Set {
	for i, k := range names {
		if k == "" {
			panic(fmt.Sprintf("stats: set %s: slot %d has no name", name, i))
		}
		for _, prev := range names[:i] {
			if prev == k {
				panic(fmt.Sprintf("stats: set %s: counter %q declared twice", name, k))
			}
		}
	}
	return &Set{name: name, names: names[:len(names):len(names)], slots: make([]counter, len(names))}
}

// Name returns the name the set was created with.
func (s *Set) Name() string { return s.name }

// AddAt adds delta to the counter in slot c.
func (s *Set) AddAt(c Slot, delta int64) {
	p := &s.slots[c]
	p.n += delta
	p.touched = true
}

// IncAt increments the counter in slot c by one.
func (s *Set) IncAt(c Slot) { s.AddAt(c, 1) }

// GetAt returns the value of the counter in slot c.
func (s *Set) GetAt(c Slot) int64 { return s.slots[c].n }

// slot returns the slot holding counter key, or -1.
func (s *Set) slot(key string) int {
	for i, k := range s.names {
		if k == key {
			return i
		}
	}
	return -1
}

// Add increments counter key by delta, creating it if absent.
func (s *Set) Add(key string, delta int64) {
	i := s.slot(key)
	if i < 0 {
		i = len(s.slots)
		s.names = append(s.names, key)
		s.slots = append(s.slots, counter{})
	}
	s.AddAt(Slot(i), delta)
}

// Get returns the current value of counter key (zero if absent).
func (s *Set) Get(key string) int64 {
	if i := s.slot(key); i >= 0 {
		return s.slots[i].n
	}
	return 0
}

// sorted returns the touched slots in counter-name order.
func (s *Set) sorted() []int {
	var idx []int
	for i, c := range s.slots {
		if c.touched {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return s.names[idx[a]] < s.names[idx[b]] })
	return idx
}

// Merge adds every touched counter of other into s, in other's slot
// order. Slot order is declaration order followed by first-use order, so
// the slots a merge appends, like the sums, do not depend on how the
// parallel sweep scheduled the runs that produced the sets.
func (s *Set) Merge(other *Set) {
	for i, c := range other.slots {
		if c.touched {
			s.Add(other.names[i], c.n)
		}
	}
}

// Clone returns a snapshot of s: later adds to either set do not reach
// the other.
func (s *Set) Clone() *Set {
	return &Set{name: s.name, names: s.names[:len(s.names):len(s.names)], slots: slices.Clone(s.slots)}
}

// String renders the set as "name{k1=v1 k2=v2 ...}" with sorted keys.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('{')
	for j, i := range s.sorted() {
		if j > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", s.names[i], s.slots[i].n)
	}
	b.WriteByte('}')
	return b.String()
}

// Dump renders one counter per line, sorted, with the given indent prefix.
func (s *Set) Dump(indent string) string {
	var b strings.Builder
	for _, i := range s.sorted() {
		fmt.Fprintf(&b, "%s%-40s %d\n", indent, s.names[i], s.slots[i].n)
	}
	return b.String()
}
