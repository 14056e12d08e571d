package cache_test

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/cst"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// nopBackend absorbs the CST's OMC traffic.
type nopBackend struct{}

func (nopBackend) ReceiveVersion(omc.Version, uint64) uint64 { return 0 }
func (nopBackend) ReportMinVer(int, uint64, uint64)          {}
func (nopBackend) LowerMinVer(int, uint64, uint64)           {}
func (nopBackend) DumpContext(int, uint64, uint64) uint64    { return 0 }

// tinyCfg is a machine whose caches hold a handful of lines: 2-line L1s,
// 4-line L2s and two 4-line LLC slices.
func tinyCfg(cores, perVD int) *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = cores
	cfg.CoresPerVD = perVD
	cfg.L1Size, cfg.L1Ways = 2*64, 2
	cfg.L2Size, cfg.L2Ways = 4*64, 2
	cfg.LLCSlices = 2
	cfg.LLCSize, cfg.LLCWays = 2*4*64, 2
	cfg.EpochSize = 3
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &cfg
}

// checked is a hierarchy under test: its shared levels and its full
// invariant checker.
type checked struct {
	name   string
	levels *cache.Levels
	check  func() error
}

// bothHierarchies builds a MESI hierarchy and a CST frontend on cfg.
func bothHierarchies(cfg *sim.Config) (*coherence.Hierarchy, *cst.Frontend, []checked) {
	h := coherence.New(cfg, mem.NewDRAM(cfg), coherence.Callbacks{})
	f := cst.New(cfg, mem.NewDRAM(cfg), nopBackend{})
	return h, f, []checked{
		{"coherence", &h.Levels, h.CheckInvariants},
		{"cst", &f.Levels, f.CheckInvariants},
	}
}

// TestCheckSharedCatchesEachViolation seeds one violation of each shared
// rule into a consistent state of both hierarchies and requires their
// CheckInvariants to report it.
func TestCheckSharedCatchesEachViolation(t *testing.T) {
	const addr = 0x40
	put := func(c *cache.Cache, st cache.State) {
		ln, _, _ := c.Insert(addr)
		ln.State, ln.OID = st, 1
	}
	cases := []struct {
		name string
		seed func(l *cache.Levels)
		want string // "" = consistent
	}{
		{"consistent", func(l *cache.Levels) {}, ""},
		{"L1 line missing from L2", func(l *cache.Levels) { l.L2(0).Invalidate(addr) }, "(inclusion)"},
		{"L2 line without directory entry", func(l *cache.Levels) { l.Dir.Delete(addr) }, "no directory entry"},
		{"directory names another VD", func(l *cache.Levels) { l.Dir.Ptr(addr).Owner = 1 }, "directory disagrees"},
		{"writable L2 line not owned", func(l *cache.Levels) {
			e := l.Dir.Ptr(addr)
			e.Owner = -1
			e.Sharers.Add(0)
		}, "writable but owner=-1"},
		{"sibling L1 caches a writable line", func(l *cache.Levels) { put(l.L1(1), cache.Shared) }, "writable while sibling 1"},
		{"owner listed as sharer", func(l *cache.Levels) { l.Dir.Ptr(addr).Sharers.Add(0) }, "also listed as sharer"},
	}
	for _, tc := range cases {
		_, _, hs := bothHierarchies(tinyCfg(4, 2))
		for _, hc := range hs {
			// Consistent start: core 0 holds addr writable, its VD's L2
			// and the LLC hold it, and the directory names VD 0 owner.
			l := hc.levels
			put(l.L1(0), cache.Modified)
			put(l.L2(0), cache.Modified)
			put(l.SliceOf(addr), cache.Shared)
			l.Entry(addr).Owner = 0
			tc.seed(l)
			err := hc.check()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s/%s: %v", hc.name, tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s/%s: got %v, want an error containing %q", hc.name, tc.name, err, tc.want)
			}
		}
	}
}

// driveChecked replays fuzz bytes as accesses on both hierarchies and
// checks every invariant after every access. The first byte picks the
// machine shape; each later pair is (core and store bit, line).
func driveChecked(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	shapes := [][2]int{{2, 1}, {4, 2}, {4, 1}, {8, 2}}
	shape := shapes[int(data[0])%len(shapes)]
	cfg := tinyCfg(shape[0], shape[1])
	h, f, hs := bothHierarchies(cfg)
	var token uint64
	for i := 1; i+1 < len(data); i += 2 {
		tid := int(data[i]>>1) % cfg.Cores
		write := data[i]&1 == 1
		addr := uint64(data[i+1]%24) * 64 // 24 lines over 8-line LLC
		if write {
			token++
			h.Store(tid, addr, token)
		} else {
			h.Load(tid, addr)
		}
		f.Access(tid, addr, write, token, uint64(i))
		for _, hc := range hs {
			if err := hc.check(); err != nil {
				t.Fatalf("access %d (tid %d %#x write=%v): %s: %v", i/2, tid, addr, write, hc.name, err)
			}
		}
	}
}

// FuzzHierarchyInvariants drives both hierarchies with tiny caches from
// fuzz bytes and requires every invariant to hold after every access.
func FuzzHierarchyInvariants(f *testing.F) {
	r := sim.NewRNG(7)
	for shape := byte(0); shape < 4; shape++ {
		seed := []byte{shape}
		for i := 0; i < 400; i++ {
			seed = append(seed, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		f.Add(seed)
	}
	f.Fuzz(driveChecked)
}

// TestDirectoryNeverGrows drives both hierarchies through four times as
// many distinct lines as their L2s hold and requires the directory, sized
// at construction, never to grow. Each counted call drives a fresh pair
// of hierarchies whose DRAMs already hold every line and whose walker is
// off, so a directory growth is the only allocation left to count.
func TestDirectoryNeverGrows(t *testing.T) {
	const runs = 4
	for _, shape := range [][2]int{{4, 2}, {8, 1}} {
		cfg := tinyCfg(shape[0], shape[1])
		cfg.TagWalker = false
		lines := 4 * cfg.VDs() * cfg.L2Size / cfg.LineSize
		type pair struct {
			h *coherence.Hierarchy
			f *cst.Frontend
			r *sim.RNG
		}
		pairs := make([]pair, runs+1)
		for i := range pairs {
			hd, fd := mem.NewDRAM(cfg), mem.NewDRAM(cfg)
			for l := 0; l < lines; l++ {
				hd.WriteBack(uint64(l*cfg.LineSize), 0, 0)
				fd.WriteBack(uint64(l*cfg.LineSize), 0, 0)
			}
			pairs[i] = pair{coherence.New(cfg, hd, coherence.Callbacks{}), cst.New(cfg, fd, nopBackend{}), sim.NewRNG(int64(i))}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			p := pairs[next]
			next++
			for i := 0; i < 40*lines; i++ {
				tid, addr := p.r.Intn(cfg.Cores), uint64(p.r.Intn(lines)*cfg.LineSize)
				write := p.r.Intn(3) == 0
				if write {
					p.h.Store(tid, addr, uint64(i))
				} else {
					p.h.Load(tid, addr)
				}
				p.f.Access(tid, addr, write, uint64(i), uint64(i))
			}
		})
		if allocs != 0 {
			t.Fatalf("%d cores, %d per VD: driving %d lines allocated %.1f times, want 0 (directory growth)",
				shape[0], shape[1], lines, allocs)
		}
		for _, p := range pairs {
			for _, l := range []*cache.Levels{&p.h.Levels, &p.f.Levels} {
				if n, max := l.Dir.Len(), cfg.VDs()*cfg.L2Size/cfg.LineSize+1; n > max {
					t.Fatalf("directory holds %d entries, bound %d", n, max)
				}
			}
		}
	}
}
