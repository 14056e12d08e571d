package store

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Run executes one (scheme, workload) cell the way experiments.Run does,
// with the NVM content plane backed by a fresh file store in dir, which it
// closes before returning. NVOverlay is built on a device that already has
// the plane (core.NewOn): under NAK faults a retried OMC genesis write can
// drain another during construction, and a plane attached after it would
// lose that record. The baselines persist no content, so theirs attaches
// after construction.
func Run(schemeName, wlName string, scale experiments.Scale, cfgMod func(*sim.Config), dir string) (res experiments.RunResult, err error) {
	cfg := scale.Config()
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	if err = cfg.Validate(); err != nil {
		return res, err
	}
	var s trace.Scheme
	if schemeName != "NVOverlay" {
		if s, err = experiments.NewScheme(schemeName, &cfg); err != nil {
			return res, err
		}
	}
	plane, err := OpenFilePlane(fault.OS, dir, DefaultCheckpointEvery)
	if err != nil {
		return res, err
	}
	plane.AttachBus(cfg.Obs) // its I/O events join the run's stream
	if s != nil {
		s.NVM().AttachPlane(plane)
	} else {
		nvm := mem.NewNVM(&cfg)
		nvm.AttachPlane(plane)
		s = core.NewOn(&cfg, nvm)
	}
	wl, err := workload.Get(wlName)
	if err != nil {
		return res, err
	}
	sum := trace.NewDriver(&cfg, s, wl, scale.MaxAccesses).Run()
	if err := s.NVM().ClosePlane(); err != nil {
		return res, fmt.Errorf("closing store %s: %w", dir, err)
	}
	return experiments.RunResult{Sum: sum, Scheme: s}, nil
}
