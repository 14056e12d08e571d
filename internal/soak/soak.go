// Package soak is the deterministic durable-store writer the
// crash-consistency sweep (internal/diffcheck) drives: WriteStore streams a
// seeded version history through an OMC group onto a file-backed plane
// over any fault.FS and announces every durable-path boundary to a hook,
// Durable turns those announcements into the epoch a crash must not lose,
// and Golden replays the same history into the image each epoch must
// restore to.
//
// The writer and the golden model consume the same PRNG stream, so the
// checker knows every version ever written without sharing any state with
// the writer: the only channel between them is the store directory.
package soak

import (
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
)

// Members is the OMC partition count the soak writer drives. Each member
// seals every epoch on the shared plane, so one epoch becomes durable only
// after Members manifest renames.
const Members = 2

// pagSpan is the page-address span versions land in; small enough that
// epochs overlap heavily (overwrites exercise master-table merging).
const pageSpan = 24

// Params configures one writer run. WriteStore and Golden must be given the
// same Params.
type Params struct {
	Dir             string
	Seed            int64
	Epochs          int
	PerEpoch        int
	CheckpointEvery int
}

// DefaultParams returns the standard writer shape: 6 epochs of 24 versions
// with a base checkpoint every 3 segment seals, so a full run crosses
// several checkpoint rewrites and every kind of durable-path boundary.
func DefaultParams(dir string, seed int64) Params {
	return Params{Dir: dir, Seed: seed, Epochs: 6, PerEpoch: 24, CheckpointEvery: 3}
}

// Durable tracks the newest epoch a crash must not lose: epoch e is durable
// once all Members manifest renames for it were announced. Its Hit method
// is a WriteStore hook.
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
	if d.renamed[epoch] >= Members && epoch > d.Epoch {
		d.Epoch = epoch
	}
}

// nextVersion derives the next deterministic version from the shared PRNG
// stream. Both the writer and Golden call it in the same order.
func nextVersion(rng *sim.RNG, epoch uint64) omc.Version {
	addr := (rng.Uint64n(pageSpan) + 1) << 12
	return omc.Version{Addr: addr, Epoch: epoch, Data: rng.Uint64()}
}

// writerConfig is the machine shape the writer drives: one versioned
// domain over a Members-partition OMC group that retains merged epochs.
// WriteStore attaches the file plane itself.
func writerConfig(p Params) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.CoresPerVD = 2
	cfg.RetainEpochs = true
	return cfg
}

// WriteStore runs the deterministic writer to completion over fsys: a fresh
// store in p.Dir, p.Epochs sealed epochs of p.PerEpoch versions each. hit
// (may be nil) is invoked at every boundary: the writer-level points
// "epoch-start", "mid-writes", "pre-seal" and "run-done", plus the plane's
// durable-path points ("segment-synced", "checkpoint-written",
// "manifest-temp", "manifest-renamed"). A fault-wounded plane surfaces as
// the mem.ErrPlaneWounded error ClosePlane returns; everything sealed
// before the wound is already on the filesystem for salvage.
//
// nvlint:durable
func WriteStore(fsys fault.FS, p Params, hit func(point string, epoch uint64)) error {
	cfg := writerConfig(p)
	nvm := mem.NewNVM(&cfg)
	plane, err := mem.OpenFilePlane(fsys, p.Dir, p.CheckpointEvery)
	if err != nil {
		return err
	}
	if hit != nil {
		plane.SetSealHook(hit)
	} else {
		hit = func(string, uint64) {}
	}
	nvm.AttachPlane(plane)
	g := omc.NewGroup(&cfg, nvm, Members)
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

// Golden replays the version stream that WriteStore(p, ...) writes and
// returns the cumulative last-write-wins image after each epoch;
// golden[0] is the empty pre-run state. This is the diffcheck-style model
// the salvaged image must match byte-for-byte.
func Golden(p Params) map[uint64]*mem.Table[uint64] {
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
