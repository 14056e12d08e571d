package omc

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func omcCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	return &cfg
}

// newTestNVM returns a device with a RAM plane: these tests read the
// persisted content back through recovery and time travel.
func newTestNVM(cfg *sim.Config) *mem.NVM {
	nvm := mem.NewNVM(cfg)
	nvm.AttachPlane(mem.NewRAMPlane())
	return nvm
}

func newTestOMC(cfg *sim.Config) (*OMC, *mem.NVM) {
	nvm := newTestNVM(cfg)
	return New(cfg, nvm, 0), nvm
}

// newTestGroup builds a one-member group, so min-ver reports reach the OMC
// through the group's ledger as they do in every run.
func newTestGroup(cfg *sim.Config) (*Group, *OMC, *mem.NVM) {
	nvm := newTestNVM(cfg)
	g := NewGroup(cfg, nvm, 1)
	return g, g.omcs[0], nvm
}

func TestReceiveVersionWritesData(t *testing.T) {
	cfg := omcCfg()
	o, nvm := newTestOMC(cfg)
	o.ReceiveVersion(Version{Addr: 0x1040, Epoch: 1, Data: 42}, 0)
	if nvm.Bytes(mem.WData) != 64 {
		t.Fatalf("data bytes = %d", nvm.Bytes(mem.WData))
	}
	if o.Stats().Get("versions_received") != 1 {
		t.Fatal("version counter")
	}
	// Not yet recoverable: master is empty.
	if _, ok := masterRead(o, 0x1040); ok {
		t.Fatal("unmerged version visible in master")
	}
}

func TestSameEpochReplacement(t *testing.T) {
	cfg := omcCfg()
	o, _ := newTestOMC(cfg)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 1}, 0)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 2}, 0)
	if o.Stats().Get("same_epoch_replacements") != 1 {
		t.Fatal("replacement not detected")
	}
	// Only the newest version of the epoch survives.
	d, e, ok := o.TimeTravelRead(0x40, 1)
	if !ok || d != 2 || e != 1 {
		t.Fatalf("time travel = %d,%d,%v", d, e, ok)
	}
}

func TestRecEpochProtocol(t *testing.T) {
	cfg := omcCfg()
	cfg.Cores = 4
	cfg.CoresPerVD = 2 // 2 VDs
	g, o, _ := newTestGroup(cfg)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 7}, 0)
	o.ReceiveVersion(Version{Addr: 0x80, Epoch: 2, Data: 8}, 0)

	// Only VD0 reports: epoch 0 recoverable at most (VD1 silent).
	g.ReportMinVer(0, 3, 0)
	if o.RecEpoch() != 0 {
		t.Fatalf("recEpoch = %d, want 0", o.RecEpoch())
	}
	// VD1 reports min-ver 2: epochs < 2 are persisted everywhere => rec = 1.
	g.ReportMinVer(1, 2, 0)
	if o.RecEpoch() != 1 {
		t.Fatalf("recEpoch = %d, want 1", o.RecEpoch())
	}
	if d, ok := masterRead(o, 0x40); !ok || d != 7 {
		t.Fatalf("master read = %d,%v", d, ok)
	}
	if _, ok := masterRead(o, 0x80); ok {
		t.Fatal("epoch-2 version leaked into master at rec-epoch 1")
	}
	// VD1 catches up: epoch 2 merges.
	g.ReportMinVer(0, 3, 0)
	g.ReportMinVer(1, 3, 0)
	if o.RecEpoch() != 2 {
		t.Fatalf("recEpoch = %d, want 2", o.RecEpoch())
	}
	if d, ok := masterRead(o, 0x80); !ok || d != 8 {
		t.Fatalf("master read = %d,%v", d, ok)
	}
}

func TestMergeReleasesStaleVersions(t *testing.T) {
	cfg := omcCfg()
	cfg.Cores = 2
	cfg.CoresPerVD = 2 // 1 VD
	g, o, _ := newTestGroup(cfg)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 1}, 0)
	g.ReportMinVer(0, 2, 0) // merge epoch 1
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 2, Data: 2}, 0)
	g.ReportMinVer(0, 3, 0) // merge epoch 2: epoch-1 version unmapped
	if o.Stats().Get("versions_unmapped") != 1 {
		t.Fatalf("unmapped = %d", o.Stats().Get("versions_unmapped"))
	}
	if d, _ := masterRead(o, 0x40); d != 2 {
		t.Fatalf("master = %d", d)
	}
	if o.Stats().Get("epochs_merged") != 2 {
		t.Fatal("merge count")
	}
}

func TestSealMergesEverything(t *testing.T) {
	cfg := omcCfg()
	o, _ := newTestOMC(cfg)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 1}, 0)
	o.ReceiveVersion(Version{Addr: 0x80, Epoch: 5, Data: 5}, 0)
	o.SealTo(100, 0)
	if o.RecEpoch() != 5 {
		t.Fatalf("recEpoch after seal = %d", o.RecEpoch())
	}
	img, lat := recoverImage(o)
	if img.Len() != 2 || imgAt(img, 0x40) != 1 || imgAt(img, 0x80) != 5 {
		t.Fatalf("recovered image has lines %#x", img.SortedKeys())
	}
	if lat == 0 {
		t.Fatal("recovery latency should be non-zero")
	}
}

func TestTimeTravelFallThrough(t *testing.T) {
	cfg := omcCfg()
	cfg.RetainEpochs = true
	o, _ := newTestOMC(cfg)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 10}, 0)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 3, Data: 30}, 0)
	o.ReceiveVersion(Version{Addr: 0x80, Epoch: 2, Data: 20}, 0)
	o.SealTo(0, 0)

	// Epoch 1: only the epoch-1 version is visible.
	if d, e, ok := o.TimeTravelRead(0x40, 1); !ok || d != 10 || e != 1 {
		t.Fatalf("epoch1 = %d,%d,%v", d, e, ok)
	}
	// Epoch 2 falls through to epoch 1 for 0x40.
	if d, e, ok := o.TimeTravelRead(0x40, 2); !ok || d != 10 || e != 1 {
		t.Fatalf("epoch2 fall-through = %d,%d,%v", d, e, ok)
	}
	// Epoch 3 and beyond see the newest.
	if d, _, _ := o.TimeTravelRead(0x40, 9); d != 30 {
		t.Fatalf("epoch9 = %d", d)
	}
	// Address written only in epoch 2 is invisible at epoch 1.
	if _, _, ok := o.TimeTravelRead(0x80, 1); ok {
		t.Fatal("future version visible in the past")
	}
	// Unknown address.
	if _, _, ok := o.TimeTravelRead(0xF000, 9); ok {
		t.Fatal("unknown address resolved")
	}
}

func TestTimeTravelWithoutRetention(t *testing.T) {
	cfg := omcCfg()
	o, _ := newTestOMC(cfg) // no retention
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 10}, 0)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 2, Data: 20}, 0)
	o.SealTo(0, 0)
	// Epoch tables were merged and dropped: only unmerged epochs are
	// time-travel readable, so nothing resolves...
	if _, _, ok := o.TimeTravelRead(0x40, 2); ok {
		t.Fatal("dropped epoch table still resolves")
	}
	// ...but the master still serves the consistent image.
	if d, ok := masterRead(o, 0x40); !ok || d != 20 {
		t.Fatalf("master read = %d,%v", d, ok)
	}
}

func TestCompaction(t *testing.T) {
	cfg := omcCfg()
	cfg.NVMPoolPages = 2
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	g, o, nvm := newTestGroup(cfg)
	// Epoch 1: one sparse page (2 lines), merged into master.
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 1}, 0)
	o.ReceiveVersion(Version{Addr: 0x80, Epoch: 1, Data: 2}, 0)
	g.ReportMinVer(0, 2, 0)
	dataBefore := nvm.Bytes(mem.WData)
	// Epoch 2 and 3 each open pages; quota 2 exceeded triggers compaction of
	// epoch 1's page into the current epoch.
	o.ReceiveVersion(Version{Addr: 0x1040, Epoch: 2, Data: 3}, 0)
	g.ReportMinVer(0, 3, 0)
	o.ReceiveVersion(Version{Addr: 0x2040, Epoch: 3, Data: 4}, 0)
	if o.Stats().Get("compactions") == 0 {
		t.Fatal("no compaction despite quota pressure")
	}
	if o.Stats().Get("versions_compacted") != 2 {
		t.Fatalf("versions compacted = %d", o.Stats().Get("versions_compacted"))
	}
	// Compaction rewrites data: write amplification recorded.
	if nvm.Bytes(mem.WData) <= dataBefore+64 {
		t.Fatal("compaction did not rewrite versions")
	}
	// The image survives compaction.
	o.SealTo(0, 0)
	img, _ := recoverImage(o)
	want := map[uint64]uint64{0x40: 1, 0x80: 2, 0x1040: 3, 0x2040: 4}
	for a, d := range want {
		if got := imgAt(img, a); got != d {
			t.Fatalf("addr %#x = %d, want %d (image corrupted by compaction)", a, got, d)
		}
	}
	if o.pool.Frees == 0 {
		t.Fatal("compaction freed no pages")
	}
}

func TestContextDump(t *testing.T) {
	cfg := omcCfg()
	o, nvm := newTestOMC(cfg)
	o.DumpContext(3, 7, 100)
	if nvm.Bytes(mem.WContext) != cfg.ContextDumpBytes {
		t.Fatalf("context bytes = %d", nvm.Bytes(mem.WContext))
	}
}

func TestOMCBufferAbsorbsRedundantWrites(t *testing.T) {
	cfg := omcCfg()
	cfg.OMCBufferBytes = cfg.LLCSize
	g, o, nvm := newTestGroup(cfg)
	for i := 0; i < 100; i++ {
		o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: uint64(i)}, 0)
	}
	// 1 miss + 99 hits; no NVM data written yet.
	if nvm.Bytes(mem.WData) != 0 {
		t.Fatalf("buffered writes leaked to NVM: %d bytes", nvm.Bytes(mem.WData))
	}
	if hr := g.BufferHitRate(); hr < 0.98 {
		t.Fatalf("hit rate = %f", hr)
	}
	o.SealTo(0, 0)
	if nvm.Bytes(mem.WData) != 64 {
		t.Fatalf("seal flushed %d bytes, want 64", nvm.Bytes(mem.WData))
	}
	if d, _ := masterRead(o, 0x40); d != 99 {
		t.Fatalf("final data = %d", d)
	}
}

func TestOMCBufferEpochTurnoverFlushesOldVersion(t *testing.T) {
	cfg := omcCfg()
	cfg.OMCBufferBytes = cfg.LLCSize
	o, nvm := newTestOMC(cfg)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 1, Data: 1}, 0)
	o.ReceiveVersion(Version{Addr: 0x40, Epoch: 2, Data: 2}, 0)
	// The epoch-1 version belongs to a closed snapshot: it must persist.
	if nvm.Bytes(mem.WData) != 64 {
		t.Fatalf("old version not flushed: %d bytes", nvm.Bytes(mem.WData))
	}
	o.SealTo(0, 0)
	img, _ := recoverImage(o)
	if got := imgAt(img, 0x40); got != 2 {
		t.Fatalf("image[0x40] = %d, want 2", got)
	}
}

func TestGroupRoutingAndRecovery(t *testing.T) {
	cfg := omcCfg()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	nvm := newTestNVM(cfg)
	g := NewGroup(cfg, nvm, 4)
	if len(g.omcs) != 4 {
		t.Fatalf("size = %d", len(g.omcs))
	}
	// Spread versions over partitions.
	for i := 0; i < 32; i++ {
		addr := uint64(i) << 12 // distinct 4KB pages -> different OMCs
		g.ReceiveVersion(Version{Addr: addr, Epoch: 1, Data: uint64(i + 1)}, 0)
	}
	g.ReportMinVer(0, 2, 0)
	if g.RecEpoch() != 1 {
		t.Fatalf("group recEpoch = %d", g.RecEpoch())
	}
	img, _ := g.RecoverImage()
	if img.Len() != 32 {
		t.Fatalf("image size = %d", img.Len())
	}
	for i := 0; i < 32; i++ {
		if imgAt(img, uint64(i)<<12) != uint64(i+1) {
			t.Fatalf("addr %d corrupted", i)
		}
	}
	if g.MasterEntries() != 32 {
		t.Fatalf("master entries = %d", g.MasterEntries())
	}
	if g.WorkingSetBytes() != 32*64 {
		t.Fatalf("working set = %d", g.WorkingSetBytes())
	}
	if g.MasterBytes() == 0 || g.LeafOccupancy() <= 0 {
		t.Fatal("master accounting empty")
	}
	pages := 0
	for _, o := range g.omcs {
		pages += o.pool.allocated
	}
	if pages == 0 {
		t.Fatal("no pool pages")
	}
	if g.Stats().Get("minver_messages") != 4 {
		t.Fatal("min-ver fan-out not counted")
	}
}

func TestGroupSealAndTimeTravel(t *testing.T) {
	cfg := omcCfg()
	cfg.RetainEpochs = true
	nvm := newTestNVM(cfg)
	g := NewGroup(cfg, nvm, 2)
	g.ReceiveVersion(Version{Addr: 0x1000, Epoch: 1, Data: 5}, 0)
	g.ReceiveVersion(Version{Addr: 0x1000, Epoch: 4, Data: 9}, 0)
	g.Seal(0)
	if d, e, ok := g.TimeTravelRead(0x1000, 2); !ok || d != 5 || e != 1 {
		t.Fatalf("time travel = %d,%d,%v", d, e, ok)
	}
	if g.BufferHitRate() != 0 {
		t.Fatal("buffer hit rate without buffers should be 0")
	}
}

// recoverImage materialises the OMC's consistent image of rec-epoch and
// returns it with the recovery latency.
func recoverImage(o *OMC) (*mem.Table[uint64], uint64) {
	img := mem.NewTable[uint64](0)
	return img, o.recoverInto(img)
}

// masterRead reads addr from the OMC's consistent (master) image.
func masterRead(o *OMC, addr uint64) (uint64, bool) {
	img, _ := recoverImage(o)
	return img.Get(addr)
}

// imgAt reads one line of a recovered image; absent lines read as 0.
func imgAt(img *mem.Table[uint64], addr uint64) uint64 {
	v, _ := img.Get(addr)
	return v
}

// TestContentReadersNeedPlane: the payload shadow is kept only beside a
// content plane, so with none every reader of persisted content panics,
// naming AttachPlane, rather than return an empty image.
func TestContentReadersNeedPlane(t *testing.T) {
	cfg := omcCfg()
	cfg.RetainEpochs = true
	g := NewGroup(cfg, mem.NewNVM(cfg), 2)
	g.ReceiveVersion(Version{Addr: 0x1000, Epoch: 1, Data: 5}, 0)
	g.Seal(0)
	for _, r := range []struct {
		name string
		read func()
	}{
		{"RecoverImage", func() { g.RecoverImage() }},
		{"TimeTravelRead", func() { g.TimeTravelRead(0x1000, 1) }},
		{"EpochDelta", func() { g.EpochDelta(1) }},
	} {
		t.Run(r.name, func(t *testing.T) {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "AttachPlane") {
					t.Fatalf("%s with no plane: panic %q does not name AttachPlane", r.name, msg)
				}
			}()
			r.read()
		})
	}
}

// runEpochs writes one version of every addr in each epoch from+1..to and
// merges each epoch before the next one starts.
func runEpochs(o *OMC, addrs []uint64, from, to uint64) {
	for e := from + 1; e <= to; e++ {
		for i, a := range addrs {
			o.ReceiveVersion(Version{Addr: a, Epoch: e, Data: e<<16 | uint64(i)}, e*1000)
		}
		o.advanceRecEpochTo(e, e*1000+500)
	}
}

// strided returns n line addresses stride bytes apart.
func strided(n int, stride uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 0x40 + uint64(i)*stride
	}
	return out
}

// allocBytes returns the mean number of heap bytes one call of f
// allocates, over runs calls after a warm-up call, at GOMAXPROCS 1 as
// testing.AllocsPerRun measures.
func allocBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMergedTableNodesRecycled guards the per-epoch node free list: with
// RetainEpochs false a merged table's nodes build the later epochs'
// tables, so after the first merges an epoch whose 16 versions sit in 16
// distinct level-2 subtrees (three nodes each) allocates about as many
// bytes as one whose versions share a leaf. Nodes come from slab chunks,
// so allocation counts cannot see them; bytes can, within the few hundred
// bytes per epoch that other OMC state (sorted epoch lists, compaction
// moves) varies by. Retained tables keep their nodes, and the same run
// shows that growth: about 10 KB per epoch over 16 subtrees.
func TestMergedTableNodesRecycled(t *testing.T) {
	bytes := func(retain bool, addrs []uint64) float64 {
		cfg := omcCfg()
		cfg.RetainEpochs = retain
		o := New(cfg, mem.NewNVM(cfg), 0)
		e := uint64(3)
		runEpochs(o, addrs, 0, e)
		return allocBytes(20, func() {
			runEpochs(o, addrs, e, e+1)
			e++
		})
	}
	const slack = 1 << 10
	narrow, wide := strided(16, 64), strided(16, 1<<30)
	if n, w := bytes(false, narrow), bytes(false, wide); w > n+slack {
		t.Fatalf("an epoch over 16 subtrees allocated %v B, over one leaf %v B: merged tables' nodes are not reused", w, n)
	}
	if n, w := bytes(true, narrow), bytes(true, wide); w <= n+slack {
		t.Fatalf("retaining, an epoch over 16 subtrees allocated %v B, over one leaf %v B: the guard cannot see node allocation", w, n)
	}
}

// TestRecycledNodesMatchFresh: reusing nodes moves no NVM home, slot write
// or record. Two OMCs take the same versions; one starts a new node slab
// before every epoch, so its tables are built from fresh nodes. The master
// tables and every persisted word must match.
func TestRecycledNodesMatchFresh(t *testing.T) {
	cfg := omcCfg()
	recycled, nvmR := newTestOMC(cfg)
	fresh, nvmF := newTestOMC(cfg)
	rng := rand.New(rand.NewSource(5))
	for e := uint64(1); e <= 12; e++ {
		addrs := make([]uint64, 40)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1<<20)) << 6
		}
		fresh.nodes = nodeSlab{}
		runEpochs(recycled, addrs, e-1, e)
		runEpochs(fresh, addrs, e-1, e)
	}
	if recycled.nodes.inners.FreeLen() == 0 || recycled.nodes.leaves.FreeLen() == 0 {
		t.Fatal("no node reached the free list: the comparison shows nothing")
	}
	mr, mf := recycled.master, fresh.master
	if mr.Entries() != mf.Entries() || mr.Digest() != mf.Digest() || mr.Bytes() != mf.Bytes() {
		t.Fatalf("master %v digest %#x, fresh-node master %v digest %#x", mr, mr.Digest(), mf, mf.Digest())
	}
	var er, ef []uint64
	mr.ForEach(func(l, a uint64) { er = append(er, l, a) })
	mf.ForEach(func(l, a uint64) { ef = append(ef, l, a) })
	if !slices.Equal(er, ef) {
		t.Fatal("master entries differ from the fresh-node run")
	}
	ir, iF := nvmR.Image(), nvmF.Image()
	if !slices.Equal(ir.SortedAddrs(), iF.SortedAddrs()) {
		t.Fatal("persisted word addresses differ from the fresh-node run")
	}
	for _, a := range ir.SortedAddrs() {
		vr, _ := ir.Word(a)
		if vf, _ := iF.Word(a); vr != vf {
			t.Fatalf("persisted word %#x is %#x, %#x in the fresh-node run", a, vr, vf)
		}
	}
	if sr, sf := nvmR.Stats().String(), nvmF.Stats().String(); sr != sf {
		t.Fatalf("device counters differ:\nrecycled %s\nfresh    %s", sr, sf)
	}
}

// TestRetainedEpochSurvivesLaterEpochs: a retained table keeps its nodes,
// so later epochs, merged and built while it is kept, leave its
// time-travel answers intact.
func TestRetainedEpochSurvivesLaterEpochs(t *testing.T) {
	cfg := omcCfg()
	cfg.RetainEpochs = true
	o, _ := newTestOMC(cfg)
	runEpochs(o, []uint64{0x40}, 0, 1)
	runEpochs(o, strided(9, 1<<30)[1:], 1, 6) // every line but 0x40
	if d, e, ok := o.TimeTravelRead(0x40, 3); !ok || d != 1<<16 || e != 1 {
		t.Fatalf("merged epoch 1 read as %d,%d,%v after later epochs", d, e, ok)
	}
}
