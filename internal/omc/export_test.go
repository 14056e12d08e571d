package omc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func exportGroup(t *testing.T) *Group {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	cfg.RetainEpochs = true
	nvm := mem.NewNVM(&cfg)
	nvm.AttachPlane(mem.NewRAMPlane()) // Export reads the persisted content
	g := NewGroup(&cfg, nvm, 2)
	for e := uint64(1); e <= 3; e++ {
		for i := uint64(0); i < 10; i++ {
			g.ReceiveVersion(Version{Addr: i << 12, Epoch: e, Data: e*100 + i}, 0)
		}
	}
	g.Seal(0)
	return g
}

func TestExportImportRoundTrip(t *testing.T) {
	g := exportGroup(t)
	var buf bytes.Buffer
	if err := g.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sf, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sf.RecEpoch != 3 {
		t.Fatalf("rec epoch = %d", sf.RecEpoch)
	}
	img, _ := g.RecoverImage()
	if sf.Master.Len() != img.Len() {
		t.Fatalf("master has %d lines, want %d", sf.Master.Len(), img.Len())
	}
	img.ForEach(func(a, d uint64) {
		if got, _ := sf.Master.Get(a); got != d {
			t.Fatalf("master[%#x] = %d, want %d", a, got, d)
		}
	})
	if sf.Deltas.Len() != 3 {
		t.Fatalf("deltas = %d", sf.Deltas.Len())
	}
}

func TestSnapshotFileReadAt(t *testing.T) {
	g := exportGroup(t)
	var buf bytes.Buffer
	if err := g.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sf, err := Import(&buf)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(2 << 12)
	// Fall-through matches the live group's time-travel semantics.
	for epoch := uint64(1); epoch <= 3; epoch++ {
		want, _, ok := g.TimeTravelRead(addr, epoch)
		got, gok := sf.ReadAt(addr, epoch)
		if ok != gok || got != want {
			t.Fatalf("epoch %d: archive %d,%v vs live %d,%v", epoch, got, gok, want, ok)
		}
	}
	if _, ok := sf.ReadAt(0xDEAD000, 3); ok {
		t.Fatal("phantom address resolved")
	}
	// Reads beyond the newest delta fall back to the master image.
	if d, ok := sf.ReadAt(addr, 99); !ok || d != 302 {
		t.Fatalf("future read = %d,%v", d, ok)
	}
}

func TestImportRejectsCorruptInput(t *testing.T) {
	if _, err := Import(strings.NewReader("notasnapshot")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Import(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	g := exportGroup(t)
	var buf bytes.Buffer
	if err := g.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncated archive.
	if _, err := Import(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated archive accepted")
	}
}

func TestExportDeterministic(t *testing.T) {
	g := exportGroup(t)
	var a, b bytes.Buffer
	if err := g.Export(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("export is not deterministic")
	}
}
