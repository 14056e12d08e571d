package recovery

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func buildGroup(t *testing.T, retain bool) (*omc.Group, map[uint64]uint64) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	cfg.RetainEpochs = retain
	nvm := mem.NewNVM(&cfg)
	nvm.AttachPlane(mem.NewRAMPlane()) // recovery reads the persisted content
	g := omc.NewGroup(&cfg, nvm, 2)
	golden := map[uint64]uint64{}
	// Three epochs of versions; later epochs overwrite some addresses.
	for e := uint64(1); e <= 3; e++ {
		for i := uint64(0); i < 20; i++ {
			addr := (i % (8 + e*4)) << 6 << 6 // overlapping ranges per epoch
			data := e*1000 + i
			g.ReceiveVersion(omc.Version{Addr: addr, Epoch: e, Data: data}, 0)
			golden[addr] = data // within an epoch, last write wins; epochs ascend
		}
	}
	g.Seal(0)
	return g, golden
}

func TestRecoverMatchesGolden(t *testing.T) {
	g, golden := buildGroup(t, false)
	img, rep := Recover(g)
	if rep.RecEpoch != 3 {
		t.Fatalf("rec epoch = %d", rep.RecEpoch)
	}
	if rep.LinesRestored != len(golden) || rep.LatencyCycles == 0 {
		t.Fatalf("report = %+v, golden lines %d", rep, len(golden))
	}
	if err := Verify(img, table(golden)); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsDivergence(t *testing.T) {
	img := table(map[uint64]uint64{0x40: 1, 0x80: 2})
	if err := Verify(img, table(map[uint64]uint64{0x40: 1, 0x80: 2})); err != nil {
		t.Fatal(err)
	}
	if err := Verify(img, table(map[uint64]uint64{0x40: 1})); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := Verify(img, table(map[uint64]uint64{0x40: 1, 0x80: 9})); err == nil {
		t.Fatal("value mismatch accepted")
	}
	if err := Verify(table(map[uint64]uint64{0x40: 1, 0xC0: 2}), table(map[uint64]uint64{0x40: 1, 0x80: 2})); err == nil {
		t.Fatal("missing line accepted")
	}
}

func TestReplication(t *testing.T) {
	g, golden := buildGroup(t, true)
	r := NewReplica()
	shipped := Replicate(g, r)
	if shipped == 0 {
		t.Fatal("no epochs shipped")
	}
	if r.AppliedEpoch() != g.RecEpoch() {
		t.Fatalf("replica at epoch %d, primary rec-epoch %d", r.AppliedEpoch(), g.RecEpoch())
	}
	if err := Verify(r.Image(), table(golden)); err != nil {
		t.Fatalf("replica image diverged: %v", err)
	}
	if r.BytesReceived == 0 {
		t.Fatal("no bytes on the wire")
	}
}

func TestReplicaOutOfOrderDeltas(t *testing.T) {
	r := NewReplica()
	r.Receive(2, table(map[uint64]uint64{0x40: 20}))
	r.Receive(1, table(map[uint64]uint64{0x40: 10, 0x80: 11}))
	r.Receive(3, table(map[uint64]uint64{0x80: 30}))
	if n := r.ReplayTo(2); n != 2 {
		t.Fatalf("replayed %d epochs, want 2", n)
	}
	if lineOf(r.Image(), 0x40) != 20 || lineOf(r.Image(), 0x80) != 11 {
		t.Fatalf("image after epoch 2: 0x40=%d 0x80=%d", lineOf(r.Image(), 0x40), lineOf(r.Image(), 0x80))
	}
	if n := r.ReplayTo(3); n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
	if lineOf(r.Image(), 0x80) != 30 {
		t.Fatal("epoch 3 not applied")
	}
	// Replays are idempotent.
	if n := r.ReplayTo(3); n != 0 {
		t.Fatalf("idempotent replay applied %d epochs", n)
	}
}

func TestHistoryAndTimeTravel(t *testing.T) {
	g, _ := buildGroup(t, true)
	addr := uint64(0) // written in every epoch (i=0 maps to 0)
	hist := History(g, addr)
	if len(hist) != 3 {
		t.Fatalf("history length = %d, want 3", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i-1].Epoch >= hist[i].Epoch {
			t.Fatal("history not in epoch order")
		}
	}
	if d, e, ok := g.TimeTravelRead(addr, 2); !ok || e != 2 || d != hist[1].Data {
		t.Fatalf("time travel = %d,%d,%v", d, e, ok)
	}
}

// TestHistoryMatchesEpochDeltas checks History against its definition:
// addr's version of epoch e is the value epoch e's delta holds for addr.
// It compares every written line of a retained hashtable run at Smoke, so
// lines not written in every epoch show whether History counts a
// fall-through read from an older epoch as a version of a newer one.
func TestHistoryMatchesEpochDeltas(t *testing.T) {
	cfg := experiments.Smoke.Config()
	cfg.RetainEpochs = true
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // history and deltas read content
	wl, err := workload.Get("hashtable")
	if err != nil {
		t.Fatal(err)
	}
	trace.NewDriver(&cfg, nvo, wl, experiments.Smoke.MaxAccesses).Run()
	g := nvo.Group()

	want := map[uint64][]Version{}
	for _, e := range g.Epochs() {
		g.EpochDelta(e).ForEach(func(addr, d uint64) {
			want[addr] = append(want[addr], Version{Epoch: e, Data: d})
		})
	}
	if len(want) == 0 || len(g.Epochs()) < 2 {
		t.Fatalf("retained run has %d lines over %d epochs; the comparison needs both", len(want), len(g.Epochs()))
	}
	addrs := make([]uint64, 0, len(want))
	for addr := range want {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	partial := 0
	for _, addr := range addrs {
		w := want[addr]
		if len(w) < len(g.Epochs()) {
			partial++
		}
		if got := History(g, addr); !reflect.DeepEqual(got, w) {
			t.Fatalf("History(%#x) = %v, want %v", addr, got, w)
		}
	}
	if partial == 0 {
		t.Fatal("every line is written in every epoch; a fall-through version would go unnoticed")
	}
}

// TestEndToEndCrashRecovery drives the full NVOverlay stack with a real
// workload-style store sequence, "crashes" (drains and seals), recovers,
// and verifies the image matches the final memory contents.
func TestEndToEndCrashRecovery(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.CoresPerVD = 2
	cfg.LLCSlices = 2
	cfg.L1Size = 8 * 2 * 64
	cfg.L1Ways = 2
	cfg.L2Size = 16 * 2 * 64
	cfg.L2Ways = 2
	cfg.LLCSize = 2 * 8 * 4 * 64
	cfg.LLCWays = 4
	cfg.EpochSize = 64
	cfg.OMCs = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	nvo := core.New(&cfg)
	nvo.NVM().AttachPlane(mem.NewRAMPlane()) // the test recovers the image
	clocks := sim.NewClocks(cfg.Cores)
	nvo.Bind(clocks)
	r := sim.NewRNG(3)
	golden := map[uint64]uint64{}
	var token uint64
	for i := 0; i < 20000; i++ {
		tid := r.Intn(cfg.Cores)
		addr := uint64(r.Intn(400) * 64)
		if r.Intn(2) == 0 {
			token++
			lat := nvo.Access(tid, addr, true, token)
			clocks.Advance(tid, lat)
			golden[addr] = token
		} else {
			clocks.Advance(tid, nvo.Access(tid, addr, false, 0))
		}
	}
	nvo.Drain(clocks.Max())
	img, rep := Recover(nvo.Group())
	if err := Verify(img, table(golden)); err != nil {
		t.Fatal(err)
	}
	if rep.LinesRestored != len(golden) {
		t.Fatalf("restored %d, want %d", rep.LinesRestored, len(golden))
	}
}

// lineOf reads one line of an image; absent lines read as 0.
func lineOf(img *mem.Table[uint64], addr uint64) uint64 {
	v, _ := img.Get(addr)
	return v
}

// table converts a golden map into the table Verify takes.
func table(m map[uint64]uint64) *mem.Table[uint64] {
	keys := make([]uint64, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	t := mem.NewTable[uint64](len(keys))
	for _, a := range keys {
		t.Put(a, m[a])
	}
	return t
}
