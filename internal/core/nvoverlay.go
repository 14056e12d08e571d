// Package core assembles NVOverlay, the paper's primary contribution: the
// Coherent Snapshot Tracking frontend (internal/cst) in front of the
// Multi-snapshot NVM Mapping backend (internal/omc), packaged behind the
// common Scheme interface so the experiment harness can compare it against
// the baselines under identical workloads.
package core

import (
	"fmt"

	"repro/internal/cst"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/omc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// NVOverlay is the full design: version-tagged hierarchy, distributed
// epochs, tag walkers, and one OMC per memory-controller partition.
type NVOverlay struct {
	cfg    *sim.Config
	nvm    *mem.NVM
	dram   *mem.DRAM
	group  *omc.Group
	fe     *cst.Frontend
	clocks *sim.Clocks

	lastStoreOID uint64
}

// New assembles NVOverlay from the machine configuration: cfg.TagWalker,
// cfg.OMCBufferBytes and cfg.WrapWidth select the §IV-C walker, the §IV-E
// buffer and the §IV-D wrap-around; cfg.OMCs sizes the OMC sharding and
// cfg.RetainEpochs keeps merged epochs for time travel. The device keeps
// no content; see NewOn for runs that read it.
func New(cfg *sim.Config) *NVOverlay { return NewOn(cfg, mem.NewNVM(cfg)) }

// NewOn assembles NVOverlay like New on nvm, a device mem.NewNVM built from
// cfg. A run that reads persisted content attaches its plane to nvm first:
// under NAK faults a retried construction write (an OMC genesis record)
// can drain another, and only a plane attached before construction keeps
// it. Without faults, attaching to New's device right after it returns
// loses nothing.
func NewOn(cfg *sim.Config, nvm *mem.NVM) *NVOverlay {
	if cfg.FaultClass != "" {
		fc, err := fault.ClassConfig(cfg.FaultClass, cfg.EffectiveFaultSeed())
		if err != nil {
			// cfg.Validate() rejects unknown classes; reaching here means
			// the caller skipped validation.
			panic(fmt.Sprintf("core: %v", err))
		}
		inj := fault.New(fc)
		inj.AttachBus(cfg.Obs)
		nvm.AttachFaults(inj)
	}
	dram := mem.NewDRAM(cfg)
	group := omc.NewGroup(cfg, nvm, cfg.OMCs)
	return &NVOverlay{
		cfg:   cfg,
		nvm:   nvm,
		dram:  dram,
		group: group,
		fe:    cst.New(cfg, dram, group),
	}
}

// Name implements trace.Scheme.
func (n *NVOverlay) Name() string { return "NVOverlay" }

// Bind implements trace.Scheme.
func (n *NVOverlay) Bind(clocks *sim.Clocks) { n.clocks = clocks }

// Access implements trace.Scheme: the access runs through the versioned
// hierarchy; epoch advances stall the whole versioned domain.
func (n *NVOverlay) Access(tid int, addr uint64, write bool, data uint64) uint64 {
	now := n.clocks.Now(tid)
	res := n.fe.Access(tid, addr, write, data, now)
	n.lastStoreOID = res.StoreOID
	if res.VDStall > 0 {
		vd := n.cfg.VDOf(tid)
		n.clocks.StallGroup(vd*n.cfg.CoresPerVD, (vd+1)*n.cfg.CoresPerVD, res.VDStall)
	}
	return res.Lat
}

// LastStoreOID returns the epoch tag the version access protocol assigned
// to the most recent Access when it was a store (0 after a load). The
// differential verification harness uses it to version its golden
// shadow-memory model with exactly the epochs the hardware assigned.
func (n *NVOverlay) LastStoreOID() uint64 { return n.lastStoreOID }

// Drain implements trace.Scheme: the hierarchy flushes its versions and the
// OMCs merge every remaining epoch.
func (n *NVOverlay) Drain(now uint64) {
	n.fe.Drain(now)
	n.group.Seal(now)
}

// Stats implements trace.Scheme, merging frontend and backend counters.
func (n *NVOverlay) Stats() *stats.Set {
	s := stats.NewSet("nvoverlay")
	s.Merge(n.fe.Stats())
	s.Merge(n.group.Stats())
	s.Merge(n.nvm.Stats())
	if inj := n.nvm.Injector(); inj != nil {
		f := stats.NewSet("fault")
		for _, c := range []fault.Class{fault.Torn, fault.BitFlip, fault.BankLoss, fault.NAK, fault.NAKDrop} {
			f.Add("injected_"+c.String(), inj.Count(c))
		}
		s.Merge(f)
	}
	return s
}

// Injector returns the NVM fault injector, nil when fault injection is off.
func (n *NVOverlay) Injector() *fault.Injector { return n.nvm.Injector() }

// PowerCut cuts power at cycle now and returns the durable NVM image the
// attached fault injector leaves behind; recovery.Salvage consumes it.
func (n *NVOverlay) PowerCut(now uint64) *mem.Image { return n.nvm.PowerCut(now) }

// NVM implements trace.Scheme.
func (n *NVOverlay) NVM() *mem.NVM { return n.nvm }

// Group exposes the MNM backend (recovery, time travel, Fig 13/16 stats).
func (n *NVOverlay) Group() *omc.Group { return n.group }

// Frontend exposes the CST frontend (Fig 15 evict decomposition).
func (n *NVOverlay) Frontend() *cst.Frontend { return n.fe }

// DRAM exposes the working-memory model.
func (n *NVOverlay) DRAM() *mem.DRAM { return n.dram }

var _ trace.Scheme = (*NVOverlay)(nil)
