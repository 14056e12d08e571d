package omc

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func BenchmarkRadixInsert(b *testing.B) {
	t := NewEpochTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(uint64(i)*64, uint64(i)+1)
	}
}

func BenchmarkRadixLookup(b *testing.B) {
	t := NewEpochTable()
	for i := 0; i < 1<<16; i++ {
		t.Insert(uint64(i)*64, uint64(i)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(uint64(i%(1<<16)) * 64)
	}
}

func BenchmarkReceiveVersion(b *testing.B) {
	cfg := sim.DefaultConfig()
	o := New(&cfg, mem.NewNVM(&cfg), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ReceiveVersion(Version{Addr: uint64(i) * 64, Epoch: uint64(i/1000) + 1, Data: uint64(i)}, uint64(i))
	}
}

func BenchmarkReceiveVersionBuffered(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.OMCBufferBytes = cfg.LLCSize
	o := New(&cfg, mem.NewNVM(&cfg), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Hot-set rewrites: the buffer absorbs most of these.
		o.ReceiveVersion(Version{Addr: uint64(i%4096) * 64, Epoch: 1, Data: uint64(i)}, uint64(i))
	}
}

func BenchmarkMerge(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o := New(&cfg, mem.NewNVM(&cfg), 0)
		for j := 0; j < 4096; j++ {
			o.ReceiveVersion(Version{Addr: uint64(j) * 64, Epoch: 1, Data: uint64(j)}, 0)
		}
		b.StartTimer()
		o.advanceRecEpochTo(1, 0) // merges epoch 1 (4096 entries)
	}
}
