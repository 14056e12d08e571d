// Package mem models the off-chip memory devices of the simulated machine:
// a banked NVDIMM (write latency, bank queueing, per-class byte accounting,
// wear counters, bandwidth time series) and a DRAM working-memory model with
// the per-line OID side-band that NVOverlay requires (§IV-A4).
package mem

import (
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// WriteClass labels NVM traffic so write amplification can be decomposed the
// way the paper's Figure 12 does.
type WriteClass int

const (
	// WData is snapshot/working data written in cache-line units.
	WData WriteClass = iota
	// WLog is undo/redo log traffic (72-byte entries in PiCL and SW logging).
	WLog
	// WMeta is persistent mapping-table traffic (8-byte entry writes).
	WMeta
	// WContext is processor context dumped at epoch boundaries.
	WContext
	numWriteClasses
)

// NVM models a banked non-volatile DIMM with a cumulative-work bandwidth
// model: each bank accumulates the busy time of the writes booked on it;
// when accumulated work runs ahead of the issuer's clock by more than the
// configured backlog (the controller's write-buffer depth), the issuer is
// charged the excess as a stall. Idle bank time acts as buffer credit,
// which matches the paper's assumption of a write-back DRAM buffer large
// enough to absorb bursts (§VI-B): only *sustained* oversubscription
// back-pressures execution.
type NVM struct {
	cfg *sim.Config

	bankBusy []uint64 // cumulative booked work per bank (cycles)
	lastLine []uint64 // last line buffered per bank (write combining)

	wear     *Table[int64] // per-page write counts (line writes land here)
	series   *stats.TimeSeries
	progress func() float64 // supplied by the driver; nil means no series
	stat     *stats.Set

	// Content plane (durability model). The timing model above books bank
	// occupancy; the content plane additionally tracks what the array
	// would actually hold after a power cut. plane is the persisted word
	// array; it is nil until a reader attaches one (a RAMPlane, or a
	// store.FilePlane that mirrors it to disk), so a timing-only run keeps
	// no content. pending holds per-bank FIFO queues of writes whose device
	// completion watermark has not passed yet — those are the writes a
	// power cut can tear or lose. bankDone is the per-bank completion
	// clock: unlike bankBusy (cumulative work, which grants idle credit
	// for the *stall* model), a write issued at cycle t can never be
	// durable before t+latency. dropped records that a write committed
	// while no plane was attached, so its content is gone.
	plane    DurablePlane
	pending  []bankQueue
	bankDone []uint64
	dropped  bool
	inj      *fault.Injector
	bus      *obs.Bus // nil when the run is unobserved
}

// pendingWrite is one word burst sitting in a bank's volatile queue. Its
// payload is the next n words of the queue's word ring.
type pendingWrite struct {
	addr uint64 // first word address (8-byte aligned)
	done uint64 // device completion cycle; durable once done <= now
	n    int    // payload length in words
}

// bankQueue is one bank's FIFO of pending writes. The writes and their
// payload words live in two ring buffers that advance in step: each
// write's words follow the previous write's in the word ring, so queueing
// a burst copies it without a per-write allocation and the caller's slice
// is never retained. Each ring advances a head index as writes drain and
// grows (unrolling its live contents to the front) only when full, to at
// most twice its live length, so neither ever holds more than twice the
// most the queue has had live.
type bankQueue struct {
	ring      []pendingWrite
	head, n   int // oldest write and live write count
	words     []uint64
	whead, wn int      // oldest payload word and live word count
	tmp       []uint64 // contiguous copy of a payload that wraps the word ring
}

// front returns the oldest live write.
func (q *bankQueue) front() pendingWrite { return q.ring[q.head] }

// push appends a write of words at the tail.
func (q *bankQueue) push(addr, done uint64, words []uint64) {
	if q.n == len(q.ring) {
		ring := make([]pendingWrite, max(1, 2*q.n))
		k := copy(ring, q.ring[q.head:])
		copy(ring[k:], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[wrap(q.head+q.n, len(q.ring))] = pendingWrite{addr: addr, done: done, n: len(words)}
	q.n++
	if need := q.wn + len(words); need > len(q.words) {
		buf := make([]uint64, max(need, 2*q.wn))
		copy(buf, q.span(q.whead, q.wn))
		q.words, q.whead = buf, 0
	}
	t := wrap(q.whead+q.wn, len(q.words))
	for _, v := range words {
		q.words[t] = v
		if t++; t == len(q.words) {
			t = 0
		}
	}
	q.wn += len(words)
}

// pop removes the oldest write and returns it with its payload. The
// payload is valid until the next push.
func (q *bankQueue) pop() (pendingWrite, []uint64) {
	w := q.ring[q.head]
	q.head = wrap(q.head+1, len(q.ring))
	q.n--
	words := q.span(q.whead, w.n)
	q.whead = wrap(q.whead+w.n, len(q.words))
	q.wn -= w.n
	return w, words
}

// each calls f for every live write, oldest first, without consuming.
func (q *bankQueue) each(f func(w pendingWrite, words []uint64)) {
	at := q.whead
	for i := 0; i < q.n; i++ {
		w := q.ring[wrap(q.head+i, len(q.ring))]
		f(w, q.span(at, w.n))
		at = wrap(at+w.n, len(q.words))
	}
}

// span returns the n payload words starting at word-ring index at as one
// slice, copied into tmp when they wrap around the ring end.
func (q *bankQueue) span(at, n int) []uint64 {
	if at+n <= len(q.words) {
		return q.words[at : at+n]
	}
	k := len(q.words) - at
	q.tmp = append(append(q.tmp[:0], q.words[at:]...), q.words[:n-k]...)
	return q.tmp
}

// reset empties the queue, keeping its rings.
func (q *bankQueue) reset() { q.head, q.n, q.whead, q.wn = 0, 0, 0, 0 }

// wrap reduces a ring index that may have run at most one lap past size.
func wrap(i, size int) int {
	if i >= size {
		return i - size
	}
	return i
}

// TimeSeriesBuckets is the number of progress buckets in the Fig-17-style
// bandwidth series.
const TimeSeriesBuckets = 100

// NewNVM constructs the device from the machine config. It has no content
// plane: timing, accounting and events run without one, and a run that
// reads persisted content (PowerCut, Image, recovery) attaches one with
// AttachPlane before its first write drains.
func NewNVM(cfg *sim.Config) *NVM {
	return &NVM{
		cfg:      cfg,
		bankBusy: make([]uint64, cfg.NVMBanks),
		lastLine: make([]uint64, cfg.NVMBanks),
		wear:     NewTable[int64](0),
		series:   stats.NewTimeSeries(TimeSeriesBuckets),
		stat:     stats.FromTable("nvm", nvmCounterNames[:]),
		pending:  make([]bankQueue, cfg.NVMBanks),
		bankDone: make([]uint64, cfg.NVMBanks),
		bus:      cfg.Obs,
	}
}

// SetProgress installs the driver's progress callback (fraction of the trace
// issued so far); it positions bandwidth samples on the Fig-17 axis.
func (n *NVM) SetProgress(f func() float64) { n.progress = f }

func (n *NVM) bankOf(addr uint64) int {
	line := addr / uint64(n.cfg.LineSize)
	return int(line % uint64(n.cfg.NVMBanks))
}

// occupancy is the bank time one device write of size bytes takes: the
// full write latency for a line, a quarter of it (at least one cycle) for
// a sub-line write.
func (n *NVM) occupancy(size int) uint64 {
	if size >= n.cfg.LineSize {
		return n.cfg.NVMWriteLat
	}
	return max(n.cfg.NVMWriteLat/4, 1)
}

// bookLine queues one device write on addr's bank and returns its backlog
// stall. Sub-line writes (8-byte mapping-table entries) that hit the same
// line as the bank's pending write coalesce in the controller's write
// buffer: bytes are accounted but no extra bank time is consumed.
func (n *NVM) bookLine(addr uint64, size int, now uint64) (stall uint64) {
	b := n.bankOf(addr)
	line := addr / uint64(n.cfg.LineSize)
	if size < n.cfg.LineSize && n.lastLine[b] == line && n.bankBusy[b] > now {
		return 0 // write-combined with the buffered line
	}
	n.lastLine[b] = line
	n.bankBusy[b] += n.occupancy(size)
	if n.bus != nil {
		var depth uint64
		if n.bankBusy[b] > now {
			depth = n.bankBusy[b] - now
		}
		n.bus.Emit(obs.KindNVMEnqueue, now, b, 0, addr, uint64(size), depth)
	}
	if n.bankBusy[b] > now+n.cfg.NVMMaxBacklog {
		stall = n.bankBusy[b] - now - n.cfg.NVMMaxBacklog
		n.stat.AddAt(stallCycles, int64(stall))
		n.stat.IncAt(stalledWrites)
	}
	return stall
}

// Write books a write of size bytes at address addr, issued at cycle now.
// Multi-line transfers stripe line by line across banks. It returns the
// stall charged to the issuer: zero while the device keeps up, positive
// once a bank's backlog exceeds the configured limit. Synchronous callers
// (software persistence barriers) should use WriteSync instead.
func (n *NVM) Write(class WriteClass, addr uint64, size int, now uint64) (stall uint64) {
	n.account(class, addr, size)
	if size <= n.cfg.LineSize {
		return n.bookLine(addr, size, now)
	}
	for off := 0; off < size; off += n.cfg.LineSize {
		chunk := n.cfg.LineSize
		if size-off < chunk {
			chunk = size - off // partial tail (e.g. a 72-byte log entry's tag)
		}
		stall += n.bookLine(addr+uint64(off), chunk, now+stall)
	}
	return stall
}

// WriteSync books a write and returns the full completion latency relative
// to now. It models a software persistence barrier: the issuing thread waits
// for the line to be durable.
func (n *NVM) WriteSync(class WriteClass, addr uint64, size int, now uint64) (latency uint64) {
	n.account(class, addr, size)
	if size <= n.cfg.LineSize {
		return n.syncLine(addr, size, now)
	}
	for off := 0; off < size; off += n.cfg.LineSize {
		chunk := n.cfg.LineSize
		if size-off < chunk {
			chunk = size - off
		}
		latency += n.syncLine(addr+uint64(off), chunk, now+latency)
	}
	return latency
}

func (n *NVM) syncLine(addr uint64, size int, now uint64) uint64 {
	b := n.bankOf(addr)
	occ := n.occupancy(size)
	n.lastLine[b] = addr / uint64(n.cfg.LineSize)
	// The barrier waits for everything queued ahead plus this write.
	var queued uint64
	if n.bankBusy[b] > now {
		queued = n.bankBusy[b] - now
	}
	n.bankBusy[b] += occ
	return queued + occ
}

func (n *NVM) account(class WriteClass, addr uint64, size int) {
	n.stat.AddAt(bytesBase+stats.Slot(class), int64(size))
	n.stat.IncAt(writesBase + stats.Slot(class))
	w, _ := n.wear.Upsert(n.cfg.PageAddr(addr))
	*w++
	if n.progress != nil {
		n.series.Record(n.progress(), int64(size))
	}
}

// Read returns the read latency of the device; NVM reads during recovery and
// time-travel use this. Reads are not bandwidth-modelled (the paper's
// evaluation is write-bound).
func (n *NVM) Read() uint64 { return n.cfg.NVMReadLat }

// Tick attributes elapsed simulated time to the bandwidth series.
func (n *NVM) Tick(now uint64) {
	if n.progress != nil {
		n.series.Tick(n.progress(), now)
	}
}

// Bytes returns bytes written for a class.
func (n *NVM) Bytes(class WriteClass) int64 { return n.stat.GetAt(bytesBase + stats.Slot(class)) }

// TotalBytes returns all bytes written across classes.
func (n *NVM) TotalBytes() int64 {
	var sum int64
	for c := WriteClass(0); c < numWriteClasses; c++ {
		sum += n.Bytes(c)
	}
	return sum
}

// Writes returns the number of write operations for a class.
func (n *NVM) Writes(class WriteClass) int64 { return n.stat.GetAt(writesBase + stats.Slot(class)) }

// TotalWrites returns write operations across all classes.
func (n *NVM) TotalWrites() int64 {
	var sum int64
	for c := WriteClass(0); c < numWriteClasses; c++ {
		sum += n.Writes(c)
	}
	return sum
}

// MaxWear returns the highest per-page write count (endurance proxy).
func (n *NVM) MaxWear() int64 {
	var m int64
	n.wear.ForEach(func(_ uint64, w int64) { m = max(m, w) })
	return m
}

// PagesTouched returns how many distinct NVM pages have been written.
func (n *NVM) PagesTouched() int { return n.wear.Len() }

// Series exposes the bandwidth time series (Fig 17).
func (n *NVM) Series() *stats.TimeSeries { return n.series }

// Stats returns a snapshot of the device counters, per-class
// bytes_<class> and writes_<class> included.
func (n *NVM) Stats() *stats.Set { return n.stat.Clone() }
