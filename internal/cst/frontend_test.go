package cst

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// mockBackend records versions delivered by the frontend.
type mockBackend struct {
	versions []omc.Version
	minVers  map[int]uint64
	contexts int
}

func newMock() *mockBackend { return &mockBackend{minVers: map[int]uint64{}} }

func (m *mockBackend) ReceiveVersion(v omc.Version, now uint64) uint64 {
	m.versions = append(m.versions, v)
	return 0
}
func (m *mockBackend) ReportMinVer(vd int, ver uint64, now uint64) { m.minVers[vd] = ver }
func (m *mockBackend) LowerMinVer(vd int, ver uint64, now uint64) {
	if cur, ok := m.minVers[vd]; !ok || ver < cur {
		m.minVers[vd] = ver
	}
}
func (m *mockBackend) DumpContext(vd int, epoch, now uint64) uint64 {
	m.contexts++
	return 0
}

// latest returns the data of the newest version received for addr (by
// epoch, then arrival order).
func (m *mockBackend) latest(addr uint64) (omc.Version, bool) {
	var best omc.Version
	found := false
	for _, v := range m.versions {
		if v.Addr == addr && (!found || v.Epoch >= best.Epoch) {
			best = v
			found = true
		}
	}
	return best, found
}

func cstCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.CoresPerVD = 2
	cfg.LLCSlices = 2
	cfg.L1Size = 4 * 2 * 64
	cfg.L1Ways = 2
	cfg.L2Size = 8 * 2 * 64
	cfg.L2Ways = 2
	cfg.LLCSize = 2 * 4 * 4 * 64
	cfg.LLCWays = 4
	cfg.EpochSize = 1000 // large: tests advance epochs explicitly
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &cfg
}

func newFE(cfg *sim.Config) (*Frontend, *mockBackend, *mem.DRAM) {
	mb := newMock()
	dram := mem.NewDRAM(cfg)
	return New(cfg, dram, mb), mb, dram
}

func TestStoreTagsCurrentEpoch(t *testing.T) {
	cfg := cstCfg()
	f, _, _ := newFE(cfg)
	f.Access(0, 0x40, true, 7, 0)
	ln := f.L1(0).Peek(0x40)
	if ln == nil || !ln.Dirty || ln.OID != 1 || ln.Data != 7 {
		t.Fatalf("post-store line = %+v", ln)
	}
	if f.CurEpoch(0) != 1 {
		t.Fatalf("cur epoch = %d", f.CurEpoch(0))
	}
}

func TestEpochBoundaryByStoreCount(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 3
	f, mb, _ := newFE(cfg)
	for i := 0; i < 3; i++ {
		f.Access(0, uint64(0x40+i*64), true, uint64(i), 0)
	}
	if f.CurEpoch(0) != 2 {
		t.Fatalf("epoch after 3 stores = %d, want 2", f.CurEpoch(0))
	}
	if mb.contexts != 1 {
		t.Fatalf("context dumps = %d", mb.contexts)
	}
	// The walker ran and reported min-ver = new cur-epoch.
	if mb.minVers[0] != 2 {
		t.Fatalf("min-ver = %d", mb.minVers[0])
	}
	// Walked versions arrived at the OMC tagged with the closed epoch.
	if len(mb.versions) != 3 {
		t.Fatalf("versions persisted by walk = %d", len(mb.versions))
	}
	for _, v := range mb.versions {
		if v.Epoch != 1 {
			t.Fatalf("walked version epoch = %d", v.Epoch)
		}
	}
	// VD1 is unaffected.
	if f.CurEpoch(1) != 1 {
		t.Fatal("foreign VD advanced")
	}
}

func TestStoreEviction(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 1 // every store closes an epoch
	cfg.TagWalker = false
	f, mb, _ := newFE(cfg)
	f.Access(0, 0x40, true, 1, 0) // epoch 1 -> advances to 2
	f.Access(0, 0x40, true, 2, 0) // store to immutable version of epoch 1
	if f.Stats().Get("store_evictions") != 1 {
		t.Fatalf("store evictions = %d", f.Stats().Get("store_evictions"))
	}
	// The old version now sits in the L2, dirty, tagged epoch 1; the L1
	// holds the new version of epoch 2.
	l1 := f.L1(0).Peek(0x40)
	l2 := f.L2(0).Peek(0x40)
	if l1.OID != 2 || l1.Data != 2 || !l1.Dirty {
		t.Fatalf("L1 = %+v", l1)
	}
	if l2.OID != 1 || l2.Data != 1 || !l2.Dirty {
		t.Fatalf("L2 = %+v", l2)
	}
	// A third epoch displaces the L2's version to the OMC.
	f.Access(0, 0x40, true, 3, 0)
	if len(mb.versions) != 1 || mb.versions[0].Epoch != 1 || mb.versions[0].Data != 1 {
		t.Fatalf("OMC received %v", mb.versions)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoherenceDrivenEpochAdvance(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 2
	cfg.TagWalker = false
	f, _, _ := newFE(cfg)
	// VD0 runs ahead: 4 stores => epoch 3.
	for i := 0; i < 4; i++ {
		f.Access(0, uint64(i*64), true, uint64(i), 0)
	}
	if f.CurEpoch(0) != 3 {
		t.Fatalf("VD0 epoch = %d", f.CurEpoch(0))
	}
	// VD0 writes a line in epoch 3; VD1 (epoch 1) reads it and must jump.
	f.Access(0, 0x2000, true, 99, 0)
	res := f.Access(2, 0x2000, false, 0, 0)
	if f.CurEpoch(1) != 3 {
		t.Fatalf("VD1 epoch after observing future data = %d, want 3", f.CurEpoch(1))
	}
	if res.VDStall == 0 {
		t.Fatal("epoch advance should stall the VD")
	}
	if f.Stats().Get("coherence_epoch_advances") != 1 {
		t.Fatal("advance not classified as coherence-driven")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDowngradePersistsNewestVersion(t *testing.T) {
	cfg := cstCfg()
	cfg.TagWalker = false
	f, mb, _ := newFE(cfg)
	f.Access(0, 0x80, true, 42, 0) // VD0 dirty version, epoch 1
	f.Access(2, 0x80, false, 0, 0) // VD1 GETS: downgrade
	if v, ok := mb.latest(0x80); !ok || v.Data != 42 || v.Epoch != 1 {
		t.Fatalf("downgrade did not persist the version: %v", mb.versions)
	}
	if f.EvictReason(ReasonCoherence) != 1 {
		t.Fatal("downgrade write-back not counted as coherence")
	}
	// Both VDs keep shared clean copies; LLC holds the current image.
	if ln := f.L2(0).Peek(0x80); ln == nil || ln.Dirty || ln.State.Writable() {
		t.Fatalf("owner L2 after downgrade = %+v", ln)
	}
	slice := f.LLCSlice(int((0x80 / 64) % 2))
	if ln := slice.Peek(0x80); ln == nil || ln.Data != 42 {
		t.Fatal("LLC missing the downgraded version")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidationUsesCacheToCacheTransfer(t *testing.T) {
	cfg := cstCfg()
	cfg.TagWalker = false
	f, mb, _ := newFE(cfg)
	f.Access(0, 0x80, true, 42, 0) // VD0 dirty version
	f.Access(2, 0x80, true, 43, 0) // VD1 GETX: c2c transfer, then store
	if f.Stats().Get("c2c_transfers") != 1 {
		t.Fatal("no cache-to-cache transfer")
	}
	// Same epoch on both sides (epoch 1): the transferred version is
	// overwritten in place; nothing needs to reach the OMC yet.
	if len(mb.versions) != 0 {
		t.Fatalf("OMC traffic despite c2c optimisation: %v", mb.versions)
	}
	ln := f.L1(2).Peek(0x80)
	if ln == nil || !ln.Dirty || ln.Data != 43 {
		t.Fatalf("requestor line = %+v", ln)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestC2CTransferOfOldEpochVersionStoreEvicts(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 1
	cfg.TagWalker = false
	f, mb, _ := newFE(cfg)
	f.Access(0, 0x80, true, 42, 0) // VD0: version of epoch 1; VD0 -> epoch 2
	f.Access(2, 0x80, true, 43, 0) // VD1 (still epoch 1) steals the dirty version
	// Same epoch on both sides: the transferred version is legitimately
	// overwritten in place (snapshot 1 keeps the newest epoch-1 value), and
	// VD1's boundary then closes its epoch 1.
	if f.Stats().Get("store_evictions") != 0 {
		t.Fatalf("store evictions = %d, want 0", f.Stats().Get("store_evictions"))
	}
	// VD1 is now at epoch 2; its next store to the immutable epoch-1
	// version must store-evict it, and the displaced version must carry the
	// newest epoch-1 data (43, not 42).
	f.Access(2, 0x80, true, 44, 0)
	if f.Stats().Get("store_evictions") != 1 {
		t.Fatalf("store evictions = %d, want 1", f.Stats().Get("store_evictions"))
	}
	f.Drain(0)
	if v, ok := mb.latest(0x80); !ok || v.Data != 44 {
		t.Fatalf("newest persisted version = %+v, %v", v, ok)
	}
	for _, v := range mb.versions {
		if v.Epoch == 1 && v.Data == 42 {
			t.Fatal("superseded same-epoch version 42 reached the OMC")
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadsIgnoreVersionTags(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 1
	cfg.TagWalker = false
	f, _, _ := newFE(cfg)
	f.Access(0, 0x40, true, 5, 0) // epoch 1, then advance
	// Load hits the (old-version) line without any protocol action.
	lat := f.Access(0, 0x40, false, 0, 0).Lat
	if lat != cfg.L1Latency {
		t.Fatalf("load on old version latency = %d, want L1 hit", lat)
	}
}

func TestWalkerDowngradesAndReports(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 2
	f, mb, dram := newFE(cfg)
	f.Access(0, 0x40, true, 1, 0)
	f.Access(0, 0x80, true, 2, 0) // boundary: walk persists both
	if got := f.EvictReason(ReasonWalk); got != 2 {
		t.Fatalf("walk evictions = %d", got)
	}
	if mb.minVers[0] != 2 {
		t.Fatalf("min-ver = %d", mb.minVers[0])
	}
	// Walked lines are clean now; DRAM working copy refreshed.
	if dram.Data(0x40) != 1 || dram.Data(0x80) != 2 {
		t.Fatal("walker did not refresh DRAM working copies")
	}
	f.L2(0).ForEach(func(ln *cache.Line) {
		if ln.Dirty {
			t.Fatalf("dirty version of %#x survived the walk", ln.Tag)
		}
	})
	// L1 copies downgraded M->E, still resident.
	if ln := f.L1(0).Peek(0x40); ln == nil || ln.Dirty || ln.State != cache.Exclusive {
		t.Fatalf("L1 after walk = %+v", ln)
	}
}

// nopBackend absorbs the frontend's OMC traffic without keeping it.
type nopBackend struct{}

func (nopBackend) ReceiveVersion(omc.Version, uint64) uint64 { return 0 }
func (nopBackend) ReportMinVer(int, uint64, uint64)          {}
func (nopBackend) LowerMinVer(int, uint64, uint64)           {}
func (nopBackend) DumpContext(int, uint64, uint64) uint64    { return 0 }

// TestTagWalkReusesDrainedQueue: once a walk's queue has drained, the next
// walk queues into the same array, so it allocates nothing.
func TestTagWalkReusesDrainedQueue(t *testing.T) {
	cfg := cstCfg()
	f := New(cfg, mem.NewDRAM(cfg), nopBackend{})
	addrs := []uint64{0x40, 0x80, 0xC0, 0x100, 0x140, 0x180}
	for i, a := range addrs {
		f.Access(0, a, true, uint64(i+1), 0)
	}
	walks := 0
	walk := func() {
		// Every line is a stale dirty version again, then the epoch
		// closes and the walker queues and drains them.
		f.Walk(0, cache.LevelL2, func(_ cache.Level, c *cache.Cache) {
			c.ForEach(func(ln *cache.Line) { ln.Dirty, ln.OID = true, f.cur[0] })
		})
		f.cur[0]++
		f.tagWalk(0)
		if got := len(f.walkQ[0].live()); got != len(addrs) {
			t.Fatalf("walk %d queued %d versions, want %d", walks, got, len(addrs))
		}
		for len(f.walkQ[0].live()) > 0 {
			f.drainWalk(0)
		}
		walks++
	}
	walk()
	if allocs := testing.AllocsPerRun(10, walk); allocs != 0 {
		t.Fatalf("a walk after the queue drained allocated %.1f times, want 0", allocs)
	}
	if got, want := f.EvictReason(ReasonWalk), uint64(len(addrs)*walks); got != want {
		t.Fatalf("walk evictions = %d, want %d", got, want)
	}
}

// TestWalkQueueRemoveKeepsOrder removes each live version of a queue
// whose head has moved and checks the rest stay in order, and that
// removing the last one frees the array for reuse.
func TestWalkQueueRemoveKeepsOrder(t *testing.T) {
	for i := 0; i < 4; i++ {
		var q walkQueue
		for tag := uint64(1); tag <= 5; tag++ {
			q.buf = append(q.buf, cache.Line{Tag: tag})
		}
		q.pop(1)
		q.remove(i)
		want := append([]uint64{2, 3, 4, 5}[:i:i], []uint64{2, 3, 4, 5}[i+1:]...)
		var got []uint64
		for _, ln := range q.live() {
			got = append(got, ln.Tag)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("remove(%d) left %v, want %v", i, got, want)
		}
	}
	q := walkQueue{buf: []cache.Line{{Tag: 1}}}
	q.remove(0)
	if q.head != 0 || len(q.buf) != 0 || cap(q.buf) != 1 {
		t.Fatalf("removing the last version left head %d, len %d, cap %d; want 0, 0, 1", q.head, len(q.buf), cap(q.buf))
	}
}

func TestWalkerDisabled(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 2
	cfg.TagWalker = false
	f, mb, _ := newFE(cfg)
	f.Access(0, 0x40, true, 1, 0)
	f.Access(0, 0x80, true, 2, 0)
	if f.EvictReason(ReasonWalk) != 0 || len(mb.minVers) != 0 {
		t.Fatal("walker ran despite being disabled")
	}
}

func TestL2CapacityEvictionSendsVersionToLLCAndOMC(t *testing.T) {
	cfg := cstCfg()
	cfg.TagWalker = false
	f, mb, _ := newFE(cfg)
	// L2 has 8 sets x 2 ways = 16 lines; write 40 distinct lines.
	for i := 0; i < 40; i++ {
		f.Access(0, uint64(i*64), true, uint64(i), 0)
	}
	if f.EvictReason(ReasonCapacity) == 0 {
		t.Fatal("no capacity version evictions")
	}
	if len(mb.versions) == 0 {
		t.Fatal("no versions reached the OMC")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainFlushesEverything(t *testing.T) {
	cfg := cstCfg()
	cfg.TagWalker = false
	f, mb, dram := newFE(cfg)
	f.Access(0, 0x40, true, 11, 0)
	f.Access(2, 0x80, true, 22, 0)
	f.Drain(0)
	if v, ok := mb.latest(0x40); !ok || v.Data != 11 {
		t.Fatal("drain lost 0x40")
	}
	if v, ok := mb.latest(0x80); !ok || v.Data != 22 {
		t.Fatal("drain lost 0x80")
	}
	// Drain leaves min-ver reporting to the backend's Seal.
	if len(mb.minVers) != 0 {
		t.Fatalf("drain reported min-vers: %v", mb.minVers)
	}
	if dram.Data(0x40) != 11 || dram.Data(0x80) != 22 {
		t.Fatal("drain did not refresh DRAM")
	}
}

// TestFreshness replays the coherence oracle on the versioned hierarchy:
// loads must always observe the newest store regardless of the version
// machinery, epoch advances and store-evictions happening underneath.
func TestFreshness(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 50
	latest := map[uint64]uint64{}
	f, _, _ := newFE(cfg)
	r := sim.NewRNG(7)
	var token uint64
	for i := 0; i < 30000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(256) * 64)
		if r.Intn(3) == 0 {
			token++
			f.Access(tid, addr, true, token, 0)
			latest[addr] = token
		} else {
			f.Access(tid, addr, false, 0, 0)
			ln := f.L1(tid).Peek(addr)
			if ln == nil {
				t.Fatalf("iteration %d: loaded %#x absent from L1", i, addr)
			}
			if ln.Data != latest[addr] {
				t.Fatalf("iteration %d: tid %d read %d of %#x, want %d (stale)",
					i, tid, ln.Data, addr, latest[addr])
			}
		}
		if i%2000 == 0 {
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryUnderPressure drives a working set many times the tiny L2s
// and LLC, so most misses evict an L2 victim and prune its directory
// entry, and checks every invariant after every access. Pruning shifts
// other entries back within the directory table, so an entry pointer held
// across an eviction goes stale; the first access that writes through one
// leaves the directory disagreeing with the caches, and the check right
// after it fails.
func TestDirectoryUnderPressure(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 30
	f, _, _ := newFE(cfg)
	r := sim.NewRNG(29)
	latest := map[uint64]uint64{}
	var token uint64
	for i := 0; i < 20000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(512) * 64)
		if r.Intn(2) == 0 {
			token++
			f.Access(tid, addr, true, token, 0)
			latest[addr] = token
		} else {
			f.Access(tid, addr, false, 0, 0)
			if ln := f.L1(tid).Peek(addr); ln == nil || ln.Data != latest[addr] {
				t.Fatalf("access %d: tid %d read %#x as %+v, want data %d", i, tid, addr, ln, latest[addr])
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
}

// TestImmutabilityInvariant checks the paper's core CST invariant: once an
// epoch closes, every version of that epoch delivered to the OMC carries
// the data of the *last* store the epoch made to that address — dirty old
// versions are never mutated in place.
func TestImmutabilityInvariant(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 25
	f, mb, _ := newFE(cfg)
	r := sim.NewRNG(13)
	// Oracle: last value written per (VD-epoch, addr).
	type key struct{ epoch, addr uint64 }
	oracle := map[key]uint64{}
	var token uint64
	for i := 0; i < 20000; i++ {
		tid := r.Intn(cfg.Cores)
		vd := cfg.VDOf(tid)
		addr := uint64(r.Intn(128) * 64)
		if r.Intn(2) == 0 {
			token++
			f.Access(tid, addr, true, token, 0)
			// The store is tagged with the epoch in the L1 line's OID (the
			// boundary advance inside Access may already have moved cur).
			taggedEpoch := f.L1(tid).Peek(addr).OID
			oracle[key{taggedEpoch, addr}] = token
			_ = vd
		} else {
			f.Access(tid, addr, false, 0, 0)
		}
	}
	f.Drain(0)
	// Receipt order is causal, so the LAST version received for each
	// (epoch, addr) must carry the final value that epoch wrote there;
	// earlier receipts are intermediate same-epoch versions, which are
	// legal (the per-epoch table keeps only the newest).
	last := map[key]uint64{}
	for _, v := range mb.versions {
		if _, produced := oracle[key{v.Epoch, v.Addr}]; !produced {
			t.Fatalf("OMC received version (%#x, epoch %d) never produced", v.Addr, v.Epoch)
		}
		last[key{v.Epoch, v.Addr}] = v.Data
	}
	for k, got := range last {
		if want := oracle[k]; got != want {
			t.Fatalf("final version (%#x, epoch %d) data %d, want %d (immutability violated)",
				k.addr, k.epoch, got, want)
		}
	}
}

// TestEndToEndSnapshotConsistency wires the real MNM backend behind the
// frontend and verifies that the recovered image equals the final memory
// state after a random multithreaded run.
func TestEndToEndSnapshotConsistency(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 40
	nvm := mem.NewNVM(cfg)
	nvm.AttachPlane(mem.NewRAMPlane()) // the test recovers the image
	g := omc.NewGroup(cfg, nvm, 2)
	dram := mem.NewDRAM(cfg)
	f := New(cfg, dram, g)
	r := sim.NewRNG(21)
	final := map[uint64]uint64{}
	var token uint64
	for i := 0; i < 30000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(300) * 64)
		if r.Intn(2) == 0 {
			token++
			f.Access(tid, addr, true, token, uint64(i))
			final[addr] = token
		} else {
			f.Access(tid, addr, false, 0, uint64(i))
		}
	}
	f.Drain(30000)
	g.Seal(30000)
	img, lat := g.RecoverImage()
	if lat == 0 {
		t.Fatal("recovery latency zero")
	}
	if img.Len() != len(final) {
		t.Fatalf("image has %d lines, want %d", img.Len(), len(final))
	}
	for addr, want := range final {
		if got, _ := img.Get(addr); got != want {
			t.Fatalf("recovered %#x = %d, want %d", addr, got, want)
		}
	}
	// Mid-run recoverable epoch advanced beyond zero thanks to the walker.
	if g.Stats().Get("recepoch_advances") == 0 {
		t.Fatal("rec-epoch never advanced during the run")
	}
}

func TestWrapAroundGroupTransitions(t *testing.T) {
	cfg := cstCfg()
	cfg.EpochSize = 1 // advance every store
	cfg.WrapWidth = 4 // 16 epochs, groups of 8
	f, _, _ := newFE(cfg)
	for i := 0; i < 40; i++ {
		f.Access(0, uint64((i%4)*64), true, uint64(i), 0)
	}
	// 40 epoch advances across a 16-epoch space: several group crossings.
	if f.WrapFlushes() < 4 {
		t.Fatalf("wrap flushes = %d", f.WrapFlushes())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		ReasonCapacity: "capacity", ReasonCoherence: "coherence",
		ReasonWalk: "walk", ReasonStoreEvict: "storeevict", ReasonDrain: "drain",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("%d.String() = %q", r, r.String())
		}
	}
	if Reason(99).String() != "reason99" {
		t.Fatal("unknown reason")
	}
}
