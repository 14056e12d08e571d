package store

import (
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// SoakMembers is the OMC partition count the soak writer drives. Each
// member seals every epoch on the shared plane, so one epoch becomes
// durable only after SoakMembers manifest renames.
const SoakMembers = 2

// pageSpan is the page-address span versions land in; small enough that
// epochs overlap heavily (overwrites exercise master-table merging).
const pageSpan = 24

// SoakParams configures one writer run. WriteSoak and SoakGolden must be
// given the same SoakParams.
type SoakParams struct {
	Dir             string
	Seed            int64
	Epochs          int
	PerEpoch        int
	CheckpointEvery int
}

// DefaultSoakParams returns the standard writer shape: 6 epochs of 24
// versions with a base checkpoint every 3 segment seals, so a full run
// crosses several checkpoint rewrites and every kind of durable-path
// boundary.
func DefaultSoakParams(dir string, seed int64) SoakParams {
	return SoakParams{Dir: dir, Seed: seed, Epochs: 6, PerEpoch: 24, CheckpointEvery: 3}
}

// Durable tracks the newest epoch a crash must not lose: epoch e is durable
// once all SoakMembers manifest renames for it were announced. Its Hit
// method is a WriteSoak hook.
type Durable struct {
	Epoch   uint64
	renamed map[uint64]int
}

// Hit counts one announced boundary.
func (d *Durable) Hit(point string, epoch uint64) {
	if point != "manifest-renamed" {
		return
	}
	if d.renamed == nil {
		d.renamed = make(map[uint64]int)
	}
	d.renamed[epoch]++
	if d.renamed[epoch] >= SoakMembers && epoch > d.Epoch {
		d.Epoch = epoch
	}
}

// nextVersion derives the next deterministic version from the shared PRNG
// stream. Both the writer and SoakGolden call it in the same order.
func nextVersion(rng *sim.RNG, epoch uint64) omc.Version {
	addr := (rng.Uint64n(pageSpan) + 1) << 12
	return omc.Version{Addr: addr, Epoch: epoch, Data: rng.Uint64()}
}

// WriteSoak runs the deterministic writer to completion over fsys: a fresh
// store in p.Dir, p.Epochs sealed epochs of p.PerEpoch versions each. hit
// (may be nil) is invoked at every boundary: the writer-level points
// "epoch-start", "mid-writes", "pre-seal" and "run-done", plus the plane's
// durable-path points ("segment-synced", "checkpoint-written",
// "manifest-temp", "manifest-renamed"). A fault-wounded plane surfaces as
// the ErrPlaneWounded error ClosePlane returns; everything sealed
// before the wound is already on the filesystem for salvage.
//
// nvlint:durable
func WriteSoak(fsys fault.FS, p SoakParams, hit func(point string, epoch uint64)) error {
	// One versioned domain over a SoakMembers-partition OMC group that
	// retains merged epochs.
	cfg := sim.DefaultConfig()
	cfg.Cores, cfg.CoresPerVD, cfg.RetainEpochs = 2, 2, true
	nvm := mem.NewNVM(&cfg)
	plane, err := OpenFilePlane(fsys, p.Dir, p.CheckpointEvery)
	if err != nil {
		return err
	}
	if hit != nil {
		plane.SetSealHook(hit)
	} else {
		hit = func(string, uint64) {}
	}
	nvm.AttachPlane(plane)
	g := omc.NewGroup(&cfg, nvm, SoakMembers)
	rng := sim.NewRNG(p.Seed)
	now := uint64(0)
	for e := uint64(1); e <= uint64(p.Epochs); e++ {
		hit("epoch-start", e)
		for i := 0; i < p.PerEpoch; i++ {
			if i == p.PerEpoch/2 {
				hit("mid-writes", e)
			}
			now += 2500 // let bank drains stream between seals
			g.ReceiveVersion(nextVersion(rng, e), now)
		}
		hit("pre-seal", e)
		// The single VD's tag walker reports min-ver e+1: epoch e becomes
		// recoverable and every member seals it onto the plane.
		g.ReportMinVer(0, e+1, now)
	}
	hit("run-done", 0)
	return nvm.ClosePlane()
}

// SoakGolden replays the version stream that WriteSoak(p, ...) writes and
// returns the cumulative last-write-wins image after each epoch;
// golden[0] is the empty pre-run state. This is the diffcheck-style model
// the salvaged image must match byte-for-byte.
func SoakGolden(p SoakParams) map[uint64]*mem.Table[uint64] {
	rng := sim.NewRNG(p.Seed)
	cur := mem.NewTable[uint64](0)
	golden := map[uint64]*mem.Table[uint64]{0: cur.Clone()}
	for e := uint64(1); e <= uint64(p.Epochs); e++ {
		for i := 0; i < p.PerEpoch; i++ {
			v := nextVersion(rng, e)
			cur.Put(v.Addr, v.Data)
		}
		golden[e] = cur.Clone()
	}
	return golden
}
