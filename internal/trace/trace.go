// Package trace provides the glue between workloads and snapshotting
// schemes: a tracked heap that real algorithms allocate from and whose
// loads/stores become the simulated access stream, the Scheme interface all
// six designs implement, and the driver that interleaves the 16 worker
// threads by smallest local clock.
package trace

import (
	"fmt"
	"io"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Op is one memory access produced by a workload.
type Op struct {
	Addr  uint64
	Write bool
	Data  uint64 // payload token for stores
}

// Access is one issued access with its thread attached — the unit the
// record/replay plane moves: a Driver with a Sink emits the stream it
// issues, and RunReplay consumes the same stream from a Source.
type Access struct {
	Tid   int
	Addr  uint64
	Write bool
	Data  uint64 // payload token for stores
}

// Sink receives the access stream a driver issues, in issue order.
// *tracefile.Writer implements it. A Sink error latches: the driver stops
// feeding the sink and reports the error via SinkErr, without perturbing
// the run itself.
type Sink interface {
	Append(a Access) error
}

// Golden is the Sink that builds the golden final image: the last token
// stored to each line, which recovery verification compares a recovered
// snapshot against. Only a run that verifies attaches one, so a run that
// does not verify keeps no per-line state.
type Golden struct {
	cfg   *sim.Config
	final *mem.Table[uint64]
}

// NewGolden returns an empty golden image for lines of cfg's size.
func NewGolden(cfg *sim.Config) *Golden {
	return &Golden{cfg: cfg, final: mem.NewTable[uint64](0)}
}

// Append records a store's token as its line's latest value; loads are
// ignored. It never fails.
func (g *Golden) Append(a Access) error {
	if a.Write {
		g.final.Put(g.cfg.LineAddr(a.Addr), a.Data)
	}
	return nil
}

// Final returns the image: line address to the last token stored there.
func (g *Golden) Final() *mem.Table[uint64] { return g.final }

// Source supplies a recorded access stream for RunReplay. A clean end of
// stream is io.EOF; any other error aborts the replay.
// *tracefile.Reader implements it.
type Source interface {
	Next() (Access, error)
}

// Scheme is a complete snapshotting design under test: NVOverlay or one of
// the five baselines. Access returns the latency charged to the issuing
// thread; schemes stall whole thread groups (epoch flushes, VD drains)
// through the bound clock set.
type Scheme interface {
	Name() string
	// Bind attaches the driver's thread clocks before the run starts.
	Bind(clocks *sim.Clocks)
	// Access performs one memory operation at the thread's current time.
	Access(tid int, addr uint64, write bool, data uint64) uint64
	// Drain flushes all in-flight snapshot state at end of run.
	Drain(now uint64)
	// Stats returns the scheme's counters.
	Stats() *stats.Set
	// NVM exposes the scheme's NVM device for write-amplification and
	// bandwidth accounting.
	NVM() *mem.NVM
}

// Heap is the tracked address space workloads run on. Allocation is a bump
// allocator over the simulated physical space; every Load/Store is handed,
// as it happens, to the heap's consumer (the driver issues it into the
// scheme) and nothing is buffered. Payload tokens are auto-generated so
// recovery tests can verify snapshot contents.
type Heap struct {
	cfg       *sim.Config
	brk       uint64
	consume   func(Op)
	token     uint64
	recording bool

	// TotalAllocated tracks the heap footprint.
	TotalAllocated int64
}

// HeapBase is where workload allocations start in the physical space.
const HeapBase uint64 = 1 << 30

// NewHeap creates an empty heap with recording enabled and no consumer:
// its accesses go nowhere until SetConsumer attaches one.
func NewHeap(cfg *sim.Config) *Heap {
	return &Heap{cfg: cfg, brk: HeapBase, recording: true}
}

// SetConsumer attaches the function every recorded access is handed to,
// once and in program order; nil detaches it.
func (h *Heap) SetConsumer(c func(Op)) { h.consume = c }

// SetRecording switches access recording on or off. With recording off,
// Load/Store hand nothing to the consumer (the driver disables it for
// workload Setup, whose accesses are untimed). Store still consumes a
// token either way, so the payload stream a workload observes is
// identical in both modes.
func (h *Heap) SetRecording(on bool) { h.recording = on }

// Alloc reserves size bytes and returns the base address. Allocations are
// line-aligned when size >= one line, 8-byte aligned otherwise, mimicking a
// real allocator's behaviour for cache-conscious structures.
func (h *Heap) Alloc(size int) uint64 {
	if size <= 0 {
		panic("trace: Alloc with non-positive size")
	}
	align := uint64(8)
	if size >= h.cfg.LineSize {
		align = uint64(h.cfg.LineSize)
	}
	h.brk = (h.brk + align - 1) &^ (align - 1)
	addr := h.brk
	h.brk += uint64(size)
	h.TotalAllocated += int64(size)
	return addr
}

// Load records a read of the word at addr.
func (h *Heap) Load(addr uint64) {
	if h.recording && h.consume != nil {
		h.consume(Op{Addr: addr})
	}
}

// Store records a write of the word at addr and returns the token written.
func (h *Heap) Store(addr uint64) uint64 {
	h.token++
	if h.recording && h.consume != nil {
		h.consume(Op{Addr: addr, Write: true, Data: h.token})
	}
	return h.token
}

// LoadRange records reads covering [addr, addr+size), one per cache line.
func (h *Heap) LoadRange(addr uint64, size int) {
	for a := h.cfg.LineAddr(addr); a < addr+uint64(size); a += uint64(h.cfg.LineSize) {
		h.Load(a)
	}
}

// StoreRange records writes covering [addr, addr+size), one per cache line.
func (h *Heap) StoreRange(addr uint64, size int) {
	for a := h.cfg.LineAddr(addr); a < addr+uint64(size); a += uint64(h.cfg.LineSize) {
		h.Store(a)
	}
}

// Footprint returns the bytes allocated so far.
func (h *Heap) Footprint() int64 { return h.TotalAllocated }

// Workload is a multithreaded benchmark. Step executes one operation for
// the given thread against the shared state, recording its memory accesses
// on the heap; it returns false when the thread has no more work, and then
// records no access: the driver issues each access as it is recorded and
// cannot take one back. No workload reads scheme state, so issuing each
// access as it is recorded is the same as issuing the operation's accesses
// after it.
type Workload interface {
	Name() string
	// Setup builds initial state (untimed; its accesses are discarded).
	Setup(h *Heap, rng *sim.RNG)
	// Step runs one operation for thread tid.
	Step(tid int, h *Heap, rng *sim.RNG) bool
}

// Summary reports one driver run.
type Summary struct {
	Scheme    string
	Workload  string
	Cycles    uint64 // wall-clock: max thread clock at completion
	Accesses  uint64
	Stores    uint64
	Ops       uint64 // workload operations completed
	NVMBytes  int64
	DataBytes int64
	LogBytes  int64
	MetaBytes int64
	CtxBytes  int64
	Footprint int64
}

// Driver interleaves worker threads over a scheme: the thread with the
// smallest local clock executes its next workload operation, and each of
// the operation's accesses advances that thread's clock by the access
// latency plus a fixed per-access pipeline cost.
type Driver struct {
	cfg     *sim.Config
	scheme  Scheme
	wl      Workload
	heap    *Heap
	clocks  *sim.Clocks
	rngs    []*sim.RNG
	tid     int // the thread Run is stepping
	issued  uint64
	stores  uint64
	target  uint64
	sink    Sink
	sinkErr error
}

// PipelineCost is the non-memory work charged per access (a 4-wide core
// retires a handful of ALU ops between memory references). Harnesses that
// step a scheme without a Driver charge the same.
const PipelineCost = 2

// NewDriver wires a workload to a scheme. maxAccesses bounds the run (the
// paper bounds runs at 100M instructions/thread); progress for bandwidth
// time series is measured against it.
func NewDriver(cfg *sim.Config, scheme Scheme, wl Workload, maxAccesses uint64) *Driver {
	d := &Driver{
		cfg:    cfg,
		scheme: scheme,
		wl:     wl,
		heap:   NewHeap(cfg),
		clocks: sim.NewClocks(cfg.Cores),
		rngs:   make([]*sim.RNG, cfg.Cores),
		target: maxAccesses,
	}
	for i := range d.rngs {
		d.rngs[i] = sim.NewRNG(cfg.Seed + int64(i)*7919)
	}
	scheme.Bind(d.clocks)
	scheme.NVM().SetProgress(d.progress)
	return d
}

// progress reports run completion in [0, 1] for bandwidth-over-progress
// bucketing. issue is the only place issued grows, and both callers, Run's
// consume and RunReplay, call it only while issued < target, so issued
// never passes target and the ratio never exceeds 1 (TestDriverStopsMidOp
// pins the exact stop).
func (d *Driver) progress() float64 {
	if d.target == 0 {
		return 0
	}
	return float64(d.issued) / float64(d.target)
}

// SetSink attaches a record sink; every access the driver issues is
// appended in issue order. Attach before Run. A nil sink detaches. A run
// that verifies against the golden final image attaches a Golden here.
func (d *Driver) SetSink(s Sink) { d.sink = s }

// SinkErr returns the first error the record sink reported, if any. After
// an error the driver stops feeding the sink but completes the run.
func (d *Driver) SinkErr() error { return d.sinkErr }

// issue charges one access to tid: scheme access, clock advance, record
// sink, periodic NVM tick. It is the single path both
// Run and RunReplay go through, so a replayed stream drives the scheme
// through exactly the state sequence of the run that recorded it.
func (d *Driver) issue(tid int, addr uint64, write bool, data uint64) {
	lat := d.scheme.Access(tid, addr, write, data)
	d.clocks.Advance(tid, lat+PipelineCost)
	d.issued++
	if write {
		d.stores++
	}
	if d.sink != nil && d.sinkErr == nil {
		if err := d.sink.Append(Access{Tid: tid, Addr: addr, Write: write, Data: data}); err != nil {
			d.sinkErr = err
		}
	}
	if d.issued%256 == 0 {
		d.scheme.NVM().Tick(d.clocks.Max())
	}
}

// teardown drains the scheme at end of run. Teardown (drain + seal) is not
// part of the run's bandwidth profile, so the progress hook comes off
// first.
func (d *Driver) teardown() {
	end := d.clocks.Max()
	d.scheme.NVM().Tick(end)
	d.scheme.NVM().SetProgress(nil)
	d.scheme.Drain(end)
}

// summary assembles the run report shared by Run and RunReplay.
func (d *Driver) summary(workload string, ops uint64) Summary {
	nvm := d.scheme.NVM()
	return Summary{
		Scheme:    d.scheme.Name(),
		Workload:  workload,
		Cycles:    d.clocks.Max(),
		Accesses:  d.issued,
		Stores:    d.stores,
		Ops:       ops,
		NVMBytes:  nvm.TotalBytes(),
		DataBytes: nvm.Bytes(mem.WData),
		LogBytes:  nvm.Bytes(mem.WLog),
		MetaBytes: nvm.Bytes(mem.WMeta),
		CtxBytes:  nvm.Bytes(mem.WContext),
		Footprint: d.heap.Footprint(),
	}
}

// Run executes the workload to completion or until maxAccesses, drains the
// scheme, and returns the run summary.
func (d *Driver) Run() Summary {
	setupRNG := sim.NewRNG(d.cfg.Seed)
	d.heap.SetRecording(false) // setup accesses are untimed
	d.wl.Setup(d.heap, setupRNG)
	d.heap.SetRecording(true)
	d.heap.SetConsumer(d.consume)

	var ops uint64
	for d.issued < d.target {
		tid := d.clocks.MinLive()
		if tid < 0 {
			break
		}
		d.tid = tid
		if !d.wl.Step(tid, d.heap, d.rngs[tid]) {
			d.clocks.Retire(tid)
			continue
		}
		ops++
	}
	d.teardown()
	return d.summary(d.wl.Name(), ops)
}

// consume issues one access of the operation Run is stepping. The bound is
// exact: a multi-access final op (a StoreRange, say) stops mid-op rather
// than overshooting maxAccesses, and the op's remaining accesses are
// dropped.
func (d *Driver) consume(op Op) {
	if d.issued < d.target {
		d.issue(d.tid, op.Addr, op.Write, op.Data)
	}
}

// RunReplay drives the scheme from a recorded access stream instead of a
// workload, honouring the same maxAccesses bound, tick cadence, and
// teardown as Run. A driver replaying a trace recorded by an identically
// configured driver reproduces its scheme stats exactly, and a Golden
// attached to each builds the same image.
// The workload may be nil (replay drivers need none); Summary.Ops and
// Summary.Footprint are zero since no workload ran.
func (d *Driver) RunReplay(src Source) (Summary, error) {
	var err error
	for d.issued < d.target {
		var a Access
		if a, err = src.Next(); err != nil {
			if err == io.EOF {
				err = nil
			}
			break
		}
		if a.Tid < 0 || a.Tid >= d.cfg.Cores {
			err = fmt.Errorf("trace: replayed tid %d out of range for %d cores", a.Tid, d.cfg.Cores)
			break
		}
		d.issue(a.Tid, a.Addr, a.Write, a.Data)
	}
	d.teardown()
	return d.summary("replay", 0), err
}
