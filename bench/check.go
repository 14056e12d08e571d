package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/cst"
	"repro/internal/trace"
)

// outputs are a cell's simulated results: the driver Summary scalars and
// the per-layer work counts, all read through accessors. They are
// deterministic, so a cell that reproduces them exactly is correct.
type outputs struct {
	Cycles        uint64 `json:"cycles"`
	Accesses      uint64 `json:"accesses"`
	Stores        uint64 `json:"stores"`
	Ops           uint64 `json:"ops"`
	DataBytes     int64  `json:"nvm_data_bytes"`
	LogBytes      int64  `json:"nvm_log_bytes"`
	MetaBytes     int64  `json:"nvm_meta_bytes"`
	CtxBytes      int64  `json:"nvm_context_bytes"`
	NVMWrites     int64  `json:"nvm_writes"`
	StallCycles   int64  `json:"nvm_stall_cycles"`
	L1Hits        int64  `json:"l1_hits"`
	LLCHits       int64  `json:"llc_hits"`
	LLCMisses     int64  `json:"llc_misses"`
	Invalidations int64  `json:"invalidations"`
	C2C           int64  `json:"c2c_transfers"`
	Versions      int64  `json:"versions"`
	EpochAdvances int64  `json:"epoch_advances"`
	WalkEvictions int64  `json:"walk_evictions"`
	Merged        int64  `json:"entries_merged"`
	Pages         int64  `json:"pages_allocated"`
}

// tracedCounts are the work counts only the traced run's decorators see.
type tracedCounts struct {
	PlaneApplies int64 `json:"plane_applies"`
	OMCCalls     int64 `json:"omc_calls"`
}

func outputsOf(sum trace.Summary, s trace.Scheme) outputs {
	st := s.Stats()
	nvm := s.NVM()
	o := outputs{
		Cycles:        sum.Cycles,
		Accesses:      sum.Accesses,
		Stores:        sum.Stores,
		Ops:           sum.Ops,
		DataBytes:     sum.DataBytes,
		LogBytes:      sum.LogBytes,
		MetaBytes:     sum.MetaBytes,
		CtxBytes:      sum.CtxBytes,
		NVMWrites:     nvm.TotalWrites(),
		StallCycles:   st.Get("stall_cycles"),
		L1Hits:        st.Get("l1_load_hits") + st.Get("l1_store_hits"),
		LLCHits:       st.Get("llc_hits"),
		LLCMisses:     st.Get("llc_misses"),
		Invalidations: st.Get("remote_invalidations"),
		C2C:           st.Get("c2c_transfers"),
		EpochAdvances: st.Get("epoch_advances"),
		WalkEvictions: st.Get("evict_" + cst.ReasonWalk.String()),
		Merged:        st.Get("entries_merged"),
		Pages:         st.Get("pages_allocated"),
	}
	for r := cst.ReasonCapacity; r <= cst.ReasonDrain; r++ {
		o.Versions += st.Get("evict_" + r.String())
	}
	return o
}

// nvmBytes is the NVM traffic of every write class.
func (o outputs) nvmBytes() int64 { return o.DataBytes + o.LogBytes + o.MetaBytes + o.CtxBytes }

// firstDiff names the first field where got differs from want, in
// declaration order, or returns "" when they are equal. Both must be the
// same struct type.
func firstDiff(got, want any) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if gv, wv := g.Field(i).Interface(), w.Field(i).Interface(); gv != wv {
			return fmt.Sprintf("%s = %v, want %v", g.Type().Field(i).Tag.Get("json"), gv, wv)
		}
	}
	return ""
}

// expectedCell is one cell's committed outputs.
type expectedCell struct {
	Outputs outputs      `json:"outputs"`
	Traced  tracedCounts `json:"traced"`
}

// expectedTrace is one recorded trace's committed size.
type expectedTrace struct {
	Records uint64 `json:"records"`
	Bytes   int64  `json:"bytes"`
}

// expectedWorkload is everything committed for one workload at one seed.
type expectedWorkload struct {
	Traces map[string]expectedTrace `json:"traces,omitempty"`
	Cells  map[string]expectedCell  `json:"cells"`
}

// expectations is one expect-seed<N>.json file.
type expectations struct {
	Seed      int64                       `json:"seed"`
	Workloads map[string]expectedWorkload `json:"workloads"`
}

//go:embed testdata/expect-seed*.json
var expectFiles embed.FS

func expectName(seed int64) string { return fmt.Sprintf("expect-seed%d.json", seed) }

// loadExpectations returns the committed expectations for seed, or nil
// when the seed has none.
func loadExpectations(seed int64) (*expectations, error) {
	b, err := expectFiles.ReadFile("testdata/" + expectName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectName(seed), err)
	}
	return &e, nil
}

// updateExpectations rewrites one workload's entry in the seed's file in
// the source tree, run from the repository root or from bench/.
func updateExpectations(seed int64, name string, ew expectedWorkload) (string, error) {
	dir := filepath.Join("bench", "testdata")
	if _, err := os.Stat(dir); err != nil {
		dir = "testdata"
	}
	path := filepath.Join(dir, expectName(seed))
	e := expectations{Seed: seed, Workloads: map[string]expectedWorkload{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &e); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return "", err
	}
	e.Workloads[name] = ew
	b, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// checker decides whether each cell execution is correct.
type checker struct {
	expect *expectedWorkload     // nil: consistency checks only
	first  map[string]cellResult // first execution of each cell
	recs   map[string]recording  // traces recorded during setup
}

func newChecker(e *expectations, workload string, recs map[string]recording) *checker {
	c := &checker{first: map[string]cellResult{}, recs: recs}
	if e != nil {
		if ew, ok := e.Workloads[workload]; ok {
			c.expect = &ew
		}
	}
	return c
}

// traceErrors checks the recorded traces against the committed sizes.
func (c *checker) traceErrors() []string {
	if c.expect == nil {
		return nil
	}
	var errs []string
	for name, rec := range c.recs {
		want, ok := c.expect.Traces[name]
		switch {
		case !ok:
			errs = append(errs, fmt.Sprintf("trace %s: no expectation", name))
		case rec.records != want.Records || rec.bytes != want.Bytes:
			errs = append(errs, fmt.Sprintf("trace %s: %d records in %d bytes, want %d in %d",
				name, rec.records, rec.bytes, want.Records, want.Bytes))
		}
	}
	return errs
}

// check returns why a cell execution is wrong, or "" when it is correct.
func (c *checker) check(r cellResult, replay bool) string {
	name := r.spec.name()
	if r.err != nil {
		return r.err.Error()
	}
	if r.out.Accesses == 0 {
		return "no accesses simulated"
	}
	if replay {
		// A replay issues the whole recorded stream.
		if rec := c.recs[r.spec.source]; r.out.Accesses != rec.records {
			return fmt.Sprintf("replayed %d accesses of a %d-record trace", r.out.Accesses, rec.records)
		}
		// Ideal replaying the trace Ideal recorded reproduces the
		// recording run; only the operation count is the workload's.
		if r.spec.scheme == "Ideal" {
			want := c.recs[r.spec.source].out
			want.Ops = r.out.Ops
			if d := firstDiff(r.out, want); d != "" {
				return "differs from the recording run: " + d
			}
		}
	}
	// Every execution of a cell, traced or not, gives the same outputs.
	if prev, ok := c.first[name]; ok {
		if d := firstDiff(r.out, prev.out); d != "" {
			return "differs from its first execution: " + d
		}
		if r.traced && prev.traced {
			if d := firstDiff(r.counts, prev.counts); d != "" {
				return "traced counts differ from the first traced execution: " + d
			}
		}
	}
	if prev, ok := c.first[name]; !ok || (r.traced && !prev.traced) {
		c.first[name] = r
	}
	if c.expect == nil {
		return ""
	}
	want, ok := c.expect.Cells[name]
	if !ok {
		return "no expectation"
	}
	if d := firstDiff(r.out, want.Outputs); d != "" {
		return d
	}
	if r.traced {
		if d := firstDiff(r.counts, want.Traced); d != "" {
			return d
		}
	}
	return ""
}

// expected assembles the workload's expectations from this run.
func (c *checker) expected() expectedWorkload {
	ew := expectedWorkload{Cells: map[string]expectedCell{}}
	for name, r := range c.first {
		ew.Cells[name] = expectedCell{Outputs: r.out, Traced: r.counts}
	}
	if len(c.recs) > 0 {
		ew.Traces = map[string]expectedTrace{}
		for name, rec := range c.recs {
			ew.Traces[name] = expectedTrace{Records: rec.records, Bytes: rec.bytes}
		}
	}
	return ew
}
