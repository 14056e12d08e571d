package cache

import (
	"fmt"
	"math/bits"
	"strings"
)

// sharerWords bounds SharerSet capacity: 4 words x 64 bits = 256 versioned
// domains, the big-machine ceiling enforced by sim.Config.Validate.
const sharerWords = 4

// MaxSharers is the largest versioned-domain id a SharerSet can hold, plus
// one. sim.Config.Validate rejects configurations with more VDs.
const MaxSharers = sharerWords * 64

// SharerSet is a fixed-capacity bitset of versioned-domain ids recorded in
// a directory entry. The original implementation used a bare uint64, which
// silently dropped sharers at 64+ domains (`1<<vd` is 0 for vd >= 64 in
// Go); the widened set keeps directory state exact up to MaxSharers
// domains while staying inline in DirEntry (no pointer, no allocation).
type SharerSet [sharerWords]uint64

// Add records vd as a sharer.
func (s *SharerSet) Add(vd int) { s[vd>>6] |= 1 << (uint(vd) & 63) }

// Remove clears vd from the set.
func (s *SharerSet) Remove(vd int) { s[vd>>6] &^= 1 << (uint(vd) & 63) }

// Has reports whether vd is in the set.
func (s SharerSet) Has(vd int) bool { return s[vd>>6]&(1<<(uint(vd)&63)) != 0 }

// None reports whether the set is empty.
func (s SharerSet) None() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// Only reports whether the set contains exactly vd and nothing else.
func (s SharerSet) Only(vd int) bool {
	var one SharerSet
	one.Add(vd)
	return s == one
}

// ForEach calls fn for every sharer in ascending vd order — the same order
// the old `for vd := 0; vd < VDs; vd++` bitmask scans visited, so
// invalidation and writeback event ordering is unchanged. Unlike those
// scans it costs O(set bits), not O(VDs), which is what makes 256-domain
// directory probes cheap when a line has one or two sharers.
func (s SharerSet) ForEach(fn func(vd int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 | b)
			w &= w - 1
		}
	}
}

// String renders the set as a hex word list for invariant diagnostics.
func (s SharerSet) String() string {
	var b strings.Builder
	for wi := sharerWords - 1; wi >= 0; wi-- {
		if wi < sharerWords-1 {
			b.WriteByte('_')
		}
		fmt.Fprintf(&b, "%016x", s[wi])
	}
	return b.String()
}
