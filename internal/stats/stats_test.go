package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSetAddGet(t *testing.T) {
	s := NewSet("test")
	if got := s.Get("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	s.Add("a", 5)
	s.Add("a", 1)
	if got := s.Get("a"); got != 6 {
		t.Fatalf("a = %d, want 6", got)
	}
	if s.Name() != "test" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSetKeysSorted(t *testing.T) {
	s := NewSet("t")
	for _, k := range []string{"zeta", "alpha", "mid"} {
		s.Add(k, 1)
	}
	if got, want := s.String(), "t{alpha=1 mid=1 zeta=1}"; got != want {
		t.Fatalf("String() = %q, want keys sorted: %q", got, want)
	}
}

func TestSetMerge(t *testing.T) {
	a, b := NewSet("a"), NewSet("b")
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merge gave x=%d y=%d", a.Get("x"), a.Get("y"))
	}
}

func TestSetString(t *testing.T) {
	s := NewSet("nm")
	s.Add("b", 2)
	s.Add("a", 1)
	if got := s.String(); got != "nm{a=1 b=2}" {
		t.Fatalf("String() = %q", got)
	}
	if d := s.Dump("  "); !strings.Contains(d, "a") || !strings.Contains(d, "b") {
		t.Fatalf("Dump missing keys: %q", d)
	}
}

// Property: merging two sets yields the per-key sum for every key.
func TestSetMergeProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewSet("a"), NewSet("b")
		keys := []string{"k0", "k1", "k2", "k3"}
		for _, x := range xs {
			a.Add(keys[int(x)%len(keys)], int64(x))
		}
		for _, y := range ys {
			b.Add(keys[int(y)%len(keys)], int64(y))
		}
		want := map[string]int64{}
		for _, k := range keys {
			want[k] = a.Get(k) + b.Get(k)
		}
		a.Merge(b)
		for _, k := range keys {
			if a.Get(k) != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(10)
	ts.Record(0.0, 5)
	ts.Record(0.05, 5)
	ts.Record(0.95, 7)
	ts.Record(1.5, 3)  // clamps to last bucket
	ts.Record(-0.5, 2) // clamps to first bucket
	if got := ts.buckets[0]; got != 12 {
		t.Fatalf("bucket 0 = %d, want 12", got)
	}
	if got := ts.buckets[9]; got != 10 {
		t.Fatalf("bucket 9 = %d, want 10", got)
	}
	if ts.Total() != 22 {
		t.Fatalf("total = %d", ts.Total())
	}
	if ts.Peak() != 12 {
		t.Fatalf("peak = %d", ts.Peak())
	}
	if ts.Len() != 10 {
		t.Fatalf("len = %d", ts.Len())
	}
}

func TestTimeSeriesBandwidth(t *testing.T) {
	ts := NewTimeSeries(4)
	ts.Tick(0.1, 100)
	ts.Record(0.1, 200)
	if bw := ts.Bandwidth(0); bw != 2.0 {
		t.Fatalf("bandwidth = %f, want 2", bw)
	}
	// 2 bytes/cycle at 1 GHz = 2 GB/s.
	if gbs := ts.BandwidthGBs(0, 1e9); gbs != 2.0 {
		t.Fatalf("GB/s = %f", gbs)
	}
	if bw := ts.Bandwidth(3); bw != 0 {
		t.Fatalf("empty bucket bandwidth = %f", bw)
	}
	// Ticks never move backwards.
	ts.Tick(0.1, 50)
	if ts.Cycles(0) != 100 {
		t.Fatalf("cycles = %d after backwards tick", ts.Cycles(0))
	}
}

func TestTimeSeriesSparkline(t *testing.T) {
	ts := NewTimeSeries(3)
	if s := ts.Sparkline(); len([]rune(s)) != 3 {
		t.Fatalf("empty sparkline = %q", s)
	}
	ts.Record(0.0, 1)
	ts.Record(0.5, 100)
	if s := ts.Sparkline(); len([]rune(s)) != 3 {
		t.Fatalf("sparkline = %q", s)
	}
	if ts.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestTimeSeriesZeroBuckets(t *testing.T) {
	ts := NewTimeSeries(0) // degenerate: clamps to one bucket
	ts.Record(0.5, 4)
	if ts.Total() != 4 {
		t.Fatalf("total = %d", ts.Total())
	}
}

// A counter renders once anything has added to it, even a zero; a counter
// nothing touched does not render. Merge carries a touched zero across.
func TestSetTouchedAtZero(t *testing.T) {
	s := NewSet("t")
	s.Add("zero", 0)
	s.Add("one", 1)
	if got := s.String(); got != "t{one=1 zero=0}" {
		t.Fatalf("String() = %q, want t{one=1 zero=0}", got)
	}
	m := NewSet("m")
	m.Merge(s)
	if got := m.String(); got != "m{one=1 zero=0}" {
		t.Fatalf("merged String() = %q, want m{one=1 zero=0}", got)
	}
	if d := m.Dump(""); !strings.Contains(d, "zero") || strings.Contains(d, "untouched") {
		t.Fatalf("Dump() = %q", d)
	}
	if got := NewSet("e").String(); got != "e{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestFromTableSlots(t *testing.T) {
	const (
		hits Slot = iota
		misses
		stalls
		numSlots
	)
	names := [numSlots]string{hits: "hits", misses: "misses", stalls: "stalls"}
	s := FromTable("t", names[:])
	s.IncAt(hits)
	s.AddAt(misses, 4)
	s.Add("misses", 1) // a name lookup reaches the declared slot
	s.Add("extra", 2)  // an undeclared name gains a slot
	if s.GetAt(hits) != 1 || s.GetAt(misses) != 5 || s.Get("misses") != 5 || s.Get("extra") != 2 {
		t.Fatalf("slots: hits=%d misses=%d extra=%d", s.GetAt(hits), s.GetAt(misses), s.Get("extra"))
	}
	if got := s.String(); got != "t{extra=2 hits=1 misses=5}" {
		t.Fatalf("String() = %q: untouched stalls must not render", got)
	}
	if names != [numSlots]string{"hits", "misses", "stalls"} {
		t.Fatalf("the set wrote to its name table: %v", names)
	}
}

func TestFromTableRejectsBadNames(t *testing.T) {
	for _, names := range [][]string{{"a", ""}, {"a", "b", "a"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromTable(%q) did not panic", names)
				}
			}()
			FromTable("t", names)
		}()
	}
}

// A clone is a snapshot: adds to the clone or to the original after the
// copy do not reach the other.
func TestSetClone(t *testing.T) {
	s := FromTable("t", []string{"a", "b"})
	s.AddAt(0, 3)
	c := s.Clone()
	c.AddAt(0, 1)
	c.Add("new", 1)
	s.AddAt(1, 0)
	if got := s.String(); got != "t{a=3 b=0}" {
		t.Fatalf("original = %q", got)
	}
	if got := c.String(); got != "t{a=4 new=1}" {
		t.Fatalf("clone = %q", got)
	}
}
