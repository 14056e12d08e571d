package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
)

func testCfg() *sim.Config {
	cfg := sim.DefaultConfig()
	return &cfg
}

func TestNVMWriteAccounting(t *testing.T) {
	n := NewNVM(testCfg())
	n.Write(WData, 0x1000, 64, 0)
	n.Write(WLog, 0x2000, 72, 0)
	n.Write(WMeta, 0x3000, 8, 0)
	n.Write(WContext, 0x4000, 2048, 0)
	if n.Bytes(WData) != 64 || n.Bytes(WLog) != 72 || n.Bytes(WMeta) != 8 || n.Bytes(WContext) != 2048 {
		t.Fatalf("byte accounting wrong: %d %d %d %d",
			n.Bytes(WData), n.Bytes(WLog), n.Bytes(WMeta), n.Bytes(WContext))
	}
	if n.TotalBytes() != 64+72+8+2048 {
		t.Fatalf("total = %d", n.TotalBytes())
	}
	if n.TotalWrites() != 4 {
		t.Fatalf("writes = %d", n.TotalWrites())
	}
	if n.Writes(WData) != 1 {
		t.Fatalf("data writes = %d", n.Writes(WData))
	}
}

func TestNVMBankBackpressure(t *testing.T) {
	cfg := testCfg()
	cfg.NVMMaxBacklog = 800 // two writes deep
	n := NewNVM(cfg)
	addr := uint64(0x1000) // fixed bank
	var stalled bool
	for i := 0; i < 10; i++ {
		if s := n.Write(WData, addr, 64, 0); s > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("expected backpressure stall on a saturated bank")
	}
	if n.Stats().Get("stalled_writes") == 0 {
		t.Fatal("stall counter not incremented")
	}
}

func TestNVMBanksIndependent(t *testing.T) {
	cfg := testCfg()
	cfg.NVMMaxBacklog = 400
	n := NewNVM(cfg)
	// Writes striped across all banks should not stall.
	for i := 0; i < cfg.NVMBanks; i++ {
		addr := uint64(i * cfg.LineSize)
		if s := n.Write(WData, addr, 64, 0); s != 0 {
			t.Fatalf("unexpected stall %d on bank %d", s, i)
		}
	}
}

func TestNVMWriteSyncLatency(t *testing.T) {
	n := NewNVM(testCfg())
	lat := n.WriteSync(WData, 0x40, 64, 100)
	if lat != n.cfg.NVMWriteLat {
		t.Fatalf("sync latency = %d, want %d", lat, n.cfg.NVMWriteLat)
	}
	// Second sync write to the same bank queues behind the first. Under the
	// cumulative-work model the bank's idle time before cycle 100 counts as
	// buffer credit, so the queue ahead is 400-100 = 300 cycles.
	lat2 := n.WriteSync(WData, 0x40, 64, 100)
	if lat2 != 300+n.cfg.NVMWriteLat {
		t.Fatalf("queued sync latency = %d, want %d", lat2, 300+n.cfg.NVMWriteLat)
	}
}

func TestNVMSubLineWriteCheaper(t *testing.T) {
	n := NewNVM(testCfg())
	full := n.WriteSync(WData, 0x0, 64, 0)
	small := n.WriteSync(WMeta, 0x40+uint64(64*16), 8, 0) // different bank
	if small >= full {
		t.Fatalf("8B write (%d) should cost less than 64B write (%d)", small, full)
	}
}

func TestNVMMultiLineOccupancy(t *testing.T) {
	n := NewNVM(testCfg())
	lat := n.WriteSync(WContext, 0x0, 2048, 0)
	if lat != n.cfg.NVMWriteLat*32 {
		t.Fatalf("2048B write latency = %d, want %d", lat, n.cfg.NVMWriteLat*32)
	}
}

func TestNVMWear(t *testing.T) {
	n := NewNVM(testCfg())
	for i := 0; i < 5; i++ {
		n.Write(WData, 0x1000, 64, 0)
	}
	n.Write(WData, 0x2000_0000, 64, 0)
	if n.MaxWear() != 5 {
		t.Fatalf("max wear = %d", n.MaxWear())
	}
	if n.PagesTouched() != 2 {
		t.Fatalf("pages touched = %d", n.PagesTouched())
	}
}

func TestNVMSeriesProgress(t *testing.T) {
	n := NewNVM(testCfg())
	p := 0.0
	n.SetProgress(func() float64 { return p })
	n.Write(WData, 0, 64, 0)
	p = 0.99
	n.Write(WData, 64, 64, 0)
	// 64 bytes in the first bucket and 64 in the last, none between.
	if n.Series().Total() != 128 || n.Series().Peak() != 64 {
		t.Fatalf("series %s, want 64 bytes in each of two buckets", n.Series())
	}
	if bars := []rune(n.Series().Sparkline()); bars[0] != '█' || bars[len(bars)-1] != '█' {
		t.Fatalf("sparkline %s, want the first and last buckets full", string(bars))
	}
	n.Tick(1000)
	if n.Series().Cycles(n.Series().Len()-1) != 1000 {
		t.Fatalf("cycles = %d", n.Series().Cycles(n.Series().Len()-1))
	}
}

func TestNVMRead(t *testing.T) {
	n := NewNVM(testCfg())
	if n.Read() != n.cfg.NVMReadLat {
		t.Fatalf("read latency = %d", n.Read())
	}
}

// TestWriteClassString: every write class's byte and write counters are
// keyed by the class's name.
func TestWriteClassString(t *testing.T) {
	names := []string{WData: "data", WLog: "log", WMeta: "meta", WContext: "context"}
	for c, name := range names {
		if got := nvmCounterNames[bytesBase+stats.Slot(c)]; got != "bytes_"+name {
			t.Errorf("class %d bytes counter %q, want %q", c, got, "bytes_"+name)
		}
		if got := nvmCounterNames[writesBase+stats.Slot(c)]; got != "writes_"+name {
			t.Errorf("class %d writes counter %q, want %q", c, got, "writes_"+name)
		}
	}
}

// Property: bank booking never moves a bank's free time backwards, and byte
// accounting equals the sum of sizes written.
func TestNVMBookingProperty(t *testing.T) {
	f := func(addrs []uint16, sizes []uint8) bool {
		n := NewNVM(testCfg())
		var want int64
		for i, a := range addrs {
			size := 8
			if i < len(sizes) {
				size = int(sizes[i]%200) + 1
			}
			n.Write(WData, uint64(a)*64, size, uint64(i))
			want += int64(size)
		}
		prev := make([]uint64, len(n.bankBusy))
		copy(prev, n.bankBusy)
		n.Write(WData, 0, 64, 0)
		for i := range prev {
			if n.bankBusy[i] < prev[i] {
				return false
			}
		}
		return n.Bytes(WData) == want+64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMOIDRoundTrip(t *testing.T) {
	d := NewDRAM(testCfg())
	if d.OID(0x1000) != 0 {
		t.Fatal("untouched line should have OID 0")
	}
	d.WriteBack(0x1000, 7, 111)
	if d.OID(0x1000) != 7 {
		t.Fatalf("OID = %d, want 7", d.OID(0x1000))
	}
	if d.Latency() != testCfg().DRAMLatency {
		t.Fatal("latency mismatch")
	}
	if d.SideBandBytes() != 2 {
		t.Fatalf("sideband=%d, want 2 (one line tagged)", d.SideBandBytes())
	}
	if d.Data(0x1000) != 111 {
		t.Fatalf("Data = %d, want 111", d.Data(0x1000))
	}
	if d.Data(0x9999000) != 0 {
		t.Fatal("untouched data should be zero")
	}
}

func TestDRAMSuperBlockMonotonic(t *testing.T) {
	cfg := testCfg()
	cfg.SuperBlock = 4
	d := NewDRAM(cfg)
	// Four lines share one granule; OID only rises.
	d.WriteBack(0x1000, 9, 1)
	d.WriteBack(0x1040, 3, 2) // same 256B super block, older epoch
	if d.OID(0x1080) != 9 {
		t.Fatalf("super-block OID = %d, want 9 (monotonic)", d.OID(0x1080))
	}
	d.WriteBack(0x10C0, 12, 3)
	if d.OID(0x1000) != 12 {
		t.Fatalf("super-block OID = %d, want 12", d.OID(0x1000))
	}
	if d.SideBandBytes() != 2 {
		t.Fatalf("sideband=%d, want 2 (one granule tagged)", d.SideBandBytes())
	}
}

// Read answers as the OID and Data pair it replaces, whether or not the
// line heads its tracking granule, and counts one OID lookup per call.
func TestDRAMReadMatchesOIDAndData(t *testing.T) {
	for _, sb := range []int{1, 4} {
		cfg := testCfg()
		cfg.SuperBlock = sb
		d := NewDRAM(cfg)
		rng := sim.NewRNG(int64(sb))
		line := uint64(cfg.LineSize)
		for i := 0; i < 4000; i++ {
			addr := 0x1000 + uint64(rng.Intn(64))*line + uint64(rng.Intn(8))*8
			if rng.Intn(2) == 0 {
				d.WriteBack(addr, uint64(rng.Intn(50)), uint64(i+1))
				continue
			}
			wantOID, wantData := d.OID(addr), d.Data(addr)
			before := d.stat.GetAt(dramOIDLookups)
			oid, data := d.Read(addr)
			if oid != wantOID || data != wantData {
				t.Fatalf("SuperBlock %d: Read(%#x) = (%d, %d), want (%d, %d)", sb, addr, oid, data, wantOID, wantData)
			}
			if n := d.stat.GetAt(dramOIDLookups) - before; n != 1 {
				t.Fatalf("SuperBlock %d: Read counted %d OID lookups, want 1", sb, n)
			}
		}
	}
}

func TestDRAMPerLineIndependent(t *testing.T) {
	d := NewDRAM(testCfg())
	d.WriteBack(0x1000, 9, 1)
	d.WriteBack(0x1040, 3, 2)
	if d.OID(0x1000) != 9 || d.OID(0x1040) != 3 {
		t.Fatal("per-line OIDs should be independent with SuperBlock=1")
	}
}
