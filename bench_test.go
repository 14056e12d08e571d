// Package repro's root benchmark suite regenerates each figure of the
// paper's evaluation as a testing.B benchmark (one per table/figure), and
// reports the headline quantity of each as a custom metric. Run with:
//
//	go test -bench=. -benchmem .
//
// Benchmarks use the smoke scale so the full suite completes in minutes;
// cmd/nvbench -scale quick produces the EXPERIMENTS.md numbers.
package repro

import (
	"io"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// BenchmarkTable2 measures raw simulator throughput on the ideal machine
// (Table II substrate): accesses simulated per second.
func BenchmarkTable2IdealSubstrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run("Ideal", "btree", experiments.Smoke, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Sum.Accesses), "accesses/op")
	}
}

// BenchmarkPiCLL2Substrate gates the MESI hierarchy under a checkpointing
// baseline: PiCL-L2 on the hashtable workload at smoke scale, where every
// store pays the L1/L2/LLC probes and each epoch boundary walks the L1s
// and L2s.
func BenchmarkPiCLL2Substrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run("PiCL-L2", "hashtable", experiments.Smoke, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Sum.Accesses), "accesses/op")
	}
}

// BenchmarkFig11 reruns the normalized-cycles comparison on the B+Tree
// workload and reports NVOverlay's slowdown over the ideal system.
func BenchmarkFig11NormalizedCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig11(experiments.Smoke, []string{"btree"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.Get("btree", "NVOverlay"), "nvoverlay-x")
		b.ReportMetric(m.Get("btree", "PiCL"), "picl-x")
		b.ReportMetric(m.Get("btree", "SWLog"), "swlog-x")
	}
}

// BenchmarkFig12 reruns the write-amplification comparison and reports
// PiCL's bytes relative to NVOverlay.
func BenchmarkFig12WriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := experiments.Fig12(experiments.Smoke, []string{"btree"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.Get("btree", "PiCL"), "picl-x")
		b.ReportMetric(m.Get("btree", "PiCL-L2"), "picl-l2-x")
		b.ReportMetric(m.Get("btree", "HWShadow"), "hwshadow-x")
	}
}

// BenchmarkFig13 reruns the mapping-metadata-cost measurement and reports
// the Master Table's share of the write working set.
func BenchmarkFig13MasterTableCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(experiments.Smoke, []string{"btree"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MasterPct, "master-pct")
		b.ReportMetric(rows[0].LeafOccupancy, "leaf-occ")
	}
}

// BenchmarkFig14 reruns the epoch-size sensitivity sweep on ART and
// reports PiCL's byte reduction from the smallest to the largest epoch.
func BenchmarkFig14EpochSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig14(experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		var small, big int64
		for _, p := range pts {
			if p.Scheme != "PiCL" {
				continue
			}
			if small == 0 {
				small = p.RawBytes
			}
			big = p.RawBytes
		}
		b.ReportMetric(float64(small-big)/float64(small)*100, "picl-byte-drop-pct")
	}
}

// BenchmarkFig15 reruns the evict-reason decomposition on ART and reports
// each scheme's tag-walker dependence.
func BenchmarkFig15EvictReasons(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15(experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Walker {
				continue
			}
			switch r.Scheme {
			case "PiCL":
				b.ReportMetric(r.WalkPct, "picl-walk-pct")
			case "NVOverlay":
				b.ReportMetric(r.WalkPct, "nvoverlay-walk-pct")
			}
		}
	}
}

// BenchmarkFig16 reruns the OMC-buffer ablation and reports the buffer hit
// rate and the cycle cost of running without it.
func BenchmarkFig16OMCBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.BufferHitRate, "hit-pct")
		b.ReportMetric(r.NormCyclesNoBuffer, "nobuffer-x")
	}
}

// BenchmarkFig17 reruns the bandwidth time series on B+Tree and reports
// the PiCL/NVOverlay total-traffic ratio.
func BenchmarkFig17Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig17(experiments.Smoke, false)
		if err != nil {
			b.Fatal(err)
		}
		var picl, nvo float64
		for _, s := range series {
			if s.Scheme == "PiCL" {
				picl = float64(s.Series.Total())
			} else {
				nvo = float64(s.Series.Total())
			}
		}
		b.ReportMetric(picl/nvo, "picl-over-nvo")
	}
}

// BenchmarkFig17Bursty reruns the bursty-epoch variant (time-travel
// debugging watch points).
func BenchmarkFig17BurstyEpochs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig17(experiments.Smoke, true)
		if err != nil {
			b.Fatal(err)
		}
		var picl, nvo float64
		for _, s := range series {
			if s.Scheme == "PiCL" {
				picl = float64(s.Series.Total())
			} else {
				nvo = float64(s.Series.Total())
			}
		}
		b.ReportMetric(picl/nvo, "picl-over-nvo")
	}
}

// BenchmarkAblateWalker measures the walker on/off cycle delta.
func BenchmarkAblateWalker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateWalker(experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.CyclesOff)/float64(r.CyclesOn), "off-over-on")
	}
}

// BenchmarkAblateSuperBlock measures the §V-F side-band trade-off.
func BenchmarkAblateSuperBlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblateSuperBlock(experiments.Smoke)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.SideBandBytesLine)/float64(r.SideBandBytesSuper), "sideband-saving-x")
	}
}

// BenchmarkSchemes measures end-to-end simulation throughput per scheme on
// one workload (accesses simulated per wall-clock second appear as the
// benchmark's ns/op).
func BenchmarkSchemes(b *testing.B) {
	for _, scheme := range append([]string{"Ideal"}, experiments.SchemeNames...) {
		b.Run(scheme, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(scheme, "vacation", experiments.Smoke, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFileSeal measures the file-backed durable plane end to end:
// per iteration it writes a fresh store (apply bursts, seal epochs,
// checkpoint, manifest renames) and cold-reopens it the way a restarted
// process would, with the reopened image verified against the writer's
// RAM mirror. ns/op is therefore the full write-seal-reload round trip.
func BenchmarkFileSeal(b *testing.B) {
	const epochs, perEpoch = 16, 512
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(b.TempDir(), "store")
		st, err := store.FilePlaneProfile(fault.OS, dir, epochs, perEpoch, 4, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(st.BytesOnDisk), "store-bytes")
			b.ReportMetric(float64(st.BytesOnDisk)/float64(st.DeltaRecords), "bytes/burst")
		}
	}
}

// BenchmarkFileSealFaulted runs the same write-seal-reload round trip over
// a fault-injecting in-memory filesystem with a transient short-write
// schedule (the only class the retry policy fully absorbs, so the store
// still round-trips clean). Compared against BenchmarkFileSeal it bounds
// the cost of the VFS seam plus fault bookkeeping and resumed writes; the
// faults/op metric keeps the injection rate visible so a quiet schedule
// can't fake a cheap retry path.
func BenchmarkFileSealFaulted(b *testing.B) {
	const epochs, perEpoch = 16, 512
	for i := 0; i < b.N; i++ {
		ffs := fault.NewFaultFS(fault.NewMemFS(), fault.DiskConfig{Seed: 42, ShortPer100: 35})
		st, err := store.FilePlaneProfile(ffs, "store", epochs, perEpoch, 4, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(st.BytesOnDisk), "store-bytes")
			b.ReportMetric(float64(len(ffs.Events())), "faults/op")
		}
	}
}

// traceBenchBlock generates the access stream the trace codec benchmarks
// run on: one million accesses mirroring a driver stream — 16 threads,
// line-aligned addresses over a 16 MB span, half stores with monotonic
// payload tokens.
func traceBenchBlock() []trace.Access {
	rng := sim.NewRNG(42)
	block := make([]trace.Access, 1<<20)
	var token uint64
	for i := range block {
		a := trace.Access{
			Tid:  int(rng.Uint64n(16)),
			Addr: (1 << 30) + rng.Uint64n(1<<18)<<6,
		}
		if rng.Uint64n(100) < 50 {
			token++
			a.Write = true
			a.Data = token
		}
		block[i] = a
	}
	return block
}

var traceBenchShape = tracefile.Shape{Cores: 16, CoresPerVD: 4, LineSize: 64, Seed: 42}

// BenchmarkTraceEncode measures TRC1 encode throughput: a million-access
// stream delta/varint-encoded into an in-memory trace file per iteration.
// It also reports the encoded size per access, the figure the docs quote.
func BenchmarkTraceEncode(b *testing.B) {
	block := traceBenchBlock()
	fsys := fault.NewMemFS()
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := tracefile.Create(fsys, "bench.trc", traceBenchShape)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range block {
			if err := w.Append(a); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		size = w.Bytes()
	}
	b.ReportMetric(float64(len(block))*float64(b.N)/b.Elapsed().Seconds(), "accesses/sec")
	b.ReportMetric(float64(size)/float64(len(block)), "B/access")
}

// BenchmarkTraceDecode measures TRC1 decode throughput: the same
// million-access trace encoded once, then streamed back per iteration.
func BenchmarkTraceDecode(b *testing.B) {
	block := traceBenchBlock()
	fsys := fault.NewMemFS()
	w, err := tracefile.Create(fsys, "bench.trc", traceBenchShape)
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range block {
		if err := w.Append(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tracefile.OpenReader(fsys, "bench.trc")
		if err != nil {
			b.Fatal(err)
		}
		var decoded uint64
		for {
			if _, err := r.Next(); err != nil {
				if err != io.EOF {
					b.Fatal(err)
				}
				break
			}
			decoded++
		}
		if decoded != uint64(len(block)) {
			b.Fatalf("decoded %d of %d records", decoded, len(block))
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(block))*float64(b.N)/b.Elapsed().Seconds(), "accesses/sec")
}

// BenchmarkWrapAround exercises the 16-bit epoch wrap-around path
// (§IV-D) under a narrow 6-bit wire width so group transitions are
// frequent.
func BenchmarkWrapAround(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.Run("NVOverlay", "btree", experiments.Smoke, func(c *sim.Config) {
			c.WrapWidth = 6
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// recordStoreTrace runs hashtable (about 60% stores) under the Ideal
// scheme at Smoke scale with the driver's record sink attached, writing
// the access stream as a TRC1 trace on fsys.
func recordStoreTrace(b *testing.B, fsys fault.FS, path string) {
	cfg := experiments.Smoke.Config()
	wl, err := workload.Get("hashtable")
	if err != nil {
		b.Fatal(err)
	}
	w, err := tracefile.Create(fsys, path, tracefile.Shape{
		Cores: cfg.Cores, CoresPerVD: cfg.CoresPerVD, LineSize: cfg.LineSize, Seed: cfg.Seed})
	if err != nil {
		b.Fatal(err)
	}
	ideal, err := experiments.NewScheme("Ideal", &cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := trace.NewDriver(&cfg, ideal, wl, experiments.Smoke.MaxAccesses)
	d.SetSink(w)
	d.Run()
	if err := d.SinkErr(); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNVOverlayStorePath gates NVOverlay's store path: the version
// access protocol, the OMCs and the NVM bank queues, with no content
// plane, as in every figure run. Each iteration replays a write-heavy trace, recorded once in
// process, through a fresh NVOverlay, so no workload generator runs in
// the timed loop.
func BenchmarkNVOverlayStorePath(b *testing.B) {
	fsys := fault.NewMemFS()
	recordStoreTrace(b, fsys, "store.trc")
	b.ResetTimer()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		cfg := experiments.Smoke.Config()
		r, err := tracefile.OpenReader(fsys, "store.trc")
		if err != nil {
			b.Fatal(err)
		}
		d := trace.NewDriver(&cfg, core.New(&cfg), nil, experiments.Smoke.MaxAccesses)
		sum, err := d.RunReplay(r)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		accesses += sum.Accesses
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/sec")
}
