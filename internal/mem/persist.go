package mem

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// AttachFaults installs a fault injector on the device. A nil injector (or
// one built from the zero Config) leaves the device perfect; the content
// plane still tracks durability so PowerCut yields the honest image.
func (n *NVM) AttachFaults(inj *fault.Injector) { n.inj = inj }

// Injector returns the attached fault injector (nil when faults are off).
func (n *NVM) Injector() *fault.Injector { return n.inj }

// AttachPlane installs the content plane: a RAMPlane for in-process
// readers, a store.FilePlane so the durable image survives process death.
// Writes still queued at attach time (construction traffic such as the
// OMC genesis records) drain onto the new plane, and words already
// committed to a previous plane are migrated, so attaching right after
// construction loses nothing. Attaching after a write already committed
// with no plane panics: that content is gone.
func (n *NVM) AttachPlane(p DurablePlane) {
	if p == nil {
		return
	}
	if n.dropped {
		panic("mem: AttachPlane after a write drained with no plane attached, so its content is gone; attach right after NewNVM, before any write drains")
	}
	if n.plane != nil {
		old := n.plane.Snapshot()
		for _, a := range old.SortedAddrs() {
			v, _ := old.Word(a)
			p.Apply(a, []uint64{v})
		}
	}
	n.plane = p
}

// HasPlane reports whether a content plane is attached, i.e. whether the
// run keeps what the device persists.
func (n *NVM) HasPlane() bool { return n.plane != nil }

// RequirePlane panics, naming AttachPlane, when reader — a reader of
// persisted content — runs on a device that keeps none: an empty image
// there would be a silent lie.
func (n *NVM) RequirePlane(reader string) {
	if n.plane == nil {
		panic(reader + " reads persisted content, but the NVM has no plane; call AttachPlane(mem.NewRAMPlane()) right after building it")
	}
}

// SealDurable is the epoch-seal persistence barrier on durable (file)
// planes: every queued write drains into the persisted array — the sealing
// controller waits for its bank queues, the file plane logs the words —
// and the plane publishes the sealed epoch (delta-log fsync + manifest
// rename). With no plane or a RAM plane it is a no-op, so in-memory runs
// keep their historical drain schedule byte-for-byte. I/O errors
// accumulate in the plane until ClosePlane; the device model cannot stall
// on host I/O.
func (n *NVM) SealDurable(epoch, now uint64) {
	if n.plane == nil || !n.plane.Durable() {
		return
	}
	for b := range n.pending {
		q := &n.pending[b]
		for q.n > 0 {
			w, words := q.pop()
			n.commit(w, words, now)
		}
		if n.bankDone[b] < now {
			n.bankDone[b] = now
		}
	}
	n.plane.SealEpoch(epoch)
}

// ClosePlane flushes and closes the content plane, returning the first
// write-path I/O error. Drivers that attached a store.FilePlane must call
// it before trusting the directory. With no plane it returns nil.
func (n *NVM) ClosePlane() error {
	if n.plane == nil {
		return nil
	}
	return n.plane.Close()
}

// wordAlign truncates addr to 8-byte word granularity. The content plane
// models the device's atomic-persist unit, which is an 8-byte word.
func wordAlign(addr uint64) uint64 { return addr &^ 7 }

// Persist books a write exactly like Write — identical timing, accounting
// and stall behaviour — and additionally enqueues the given content words
// on addr's bank so they become durable once the bank's completion clock
// passes. It also exercises the transient-NAK path: a NAKed attempt is
// retried with bounded exponential backoff, and the write is dropped (never
// reaching the array) when the retry budget is exhausted. The returned
// stall includes both backlog stalls and NAK backoff.
func (n *NVM) Persist(class WriteClass, addr uint64, size int, words []uint64, now uint64) (stall uint64) {
	if n.inj.Enabled() {
		attempt := 0
		for n.inj.NAK(addr, attempt) {
			attempt++
			backoff := n.cfg.NVMWriteLat << uint(attempt)
			stall += backoff
			n.stat.AddAt(nakBackoffCycles, int64(backoff))
			if attempt >= fault.MaxNAKRetries {
				n.inj.NoteNAKDrop(addr)
				n.stat.IncAt(nakDroppedWrites)
				return stall
			}
		}
	}
	stall += n.Write(class, addr, size, now+stall)
	n.enqueue(addr, words, now+stall, true)
	return stall
}

// PersistSilent records content words as written without booking any device
// time or byte accounting. It models writes that ride an already-booked
// transfer (the per-epoch mapping-table slots, whose timing the OMC model
// charges through its own meta-write path): durability still follows the
// bank's completion clock, so recent silent writes are just as volatile at
// a power cut as booked ones. Silent writes bypass the NAK front-end.
func (n *NVM) PersistSilent(addr uint64, words []uint64, now uint64) {
	n.enqueue(addr, words, now, false)
}

// enqueue places a word burst on addr's bank queue. Booked writes complete
// a full device latency after max(bank completion clock, issue time);
// silent writes piggyback at the watermark itself. Once the queues are
// unread (see unqueued) it returns at once.
func (n *NVM) enqueue(addr uint64, words []uint64, now uint64, booked bool) {
	if len(words) == 0 || n.unqueued() {
		return
	}
	addr = wordAlign(addr)
	b := n.bankOf(addr)
	done := n.bankDone[b]
	if done < now {
		done = now
	}
	if booked {
		done += n.cfg.NVMWriteLat
		n.bankDone[b] = done
	}
	// Drain the FIFO prefix that has already completed so queues stay
	// short; order per bank (hence per word address) is preserved.
	q := &n.pending[b]
	for q.n > 0 && q.front().done <= now {
		w, words := q.pop()
		n.commit(w, words, now)
	}
	if n.unqueued() { // the drain above dropped the first write
		return
	}
	q.push(addr, done, words)
}

// unqueued reports that no reader can see the bank queues any more: a
// write already drained with no plane, so none can be attached (AttachPlane
// refuses), and with no bus no nvm_drain event reports a drain. Every
// content reader panics and SealDurable is a no-op without a plane, so the
// queues and the completion clock stop there.
func (n *NVM) unqueued() bool { return n.dropped && n.bus == nil }

// commit applies a completed write to the persisted word array. now is the
// cycle the drain was observed at (the write's own completion may be older).
// The drain event fires with or without a plane; with none the words are
// dropped and a later AttachPlane refuses. The first such drop on an
// unobserved device also releases every bank's rings (see unqueued).
func (n *NVM) commit(w pendingWrite, words []uint64, now uint64) {
	n.bus.Emit(obs.KindNVMDrain, now, n.bankOf(w.addr), 0, w.addr, uint64(len(words)), 0)
	if n.plane == nil {
		n.dropped = true
		if n.unqueued() {
			clear(n.pending)
		}
		return
	}
	n.plane.Apply(w.addr, words)
}

// PowerCut simulates losing power at cycle now and returns the resulting
// durable image. Queued writes whose completion watermark has passed are
// durable; the rest sit in the volatile bank queues, where the attached
// injector decides their fate: a bank can lose its whole queue, the
// in-flight tail write can tear (only an 8-byte-word prefix persists), and
// finally bit flips corrupt the returned image. The flips land on the cut
// image only, never on the plane, so a later Image or Snapshot reads the
// words as written. Without an injector the cut is clean ADR: completed
// writes persist, in-flight ones vanish whole.
//
// The cut consumes the queues; the device can keep running afterwards (the
// harness only reads the image), but content from before the cut is final.
// It panics when no plane is attached.
func (n *NVM) PowerCut(now uint64) *Image {
	n.RequirePlane("NVM.PowerCut")
	for b := range n.pending {
		q := &n.pending[b]
		// Durable prefix: completed before the cut.
		for q.n > 0 && q.front().done <= now {
			w, words := q.pop()
			n.commit(w, words, now)
		}
		if q.n == 0 {
			continue
		}
		if n.inj.Enabled() && n.inj.BankLost(b, q.n) {
			n.stat.AddAt(cutLostWrites, int64(q.n))
			q.reset()
			continue
		}
		// ADR drains the volatile queue in order; the injector may tear
		// the last write in flight.
		for q.n > 0 {
			w, words := q.pop()
			if q.n == 0 && n.inj.Enabled() {
				if keep, torn := n.inj.Tear(b, w.addr, len(words)); torn {
					n.stat.IncAt(cutTornWrites)
					words = words[:keep]
				}
			}
			n.commit(w, words, now)
		}
	}
	img := n.plane.Snapshot()
	if n.inj.Enabled() && img.Len() > 0 {
		keys := img.SortedAddrs()
		for f := 0; f < n.inj.FlipCount(); f++ {
			idx, bit := n.inj.Flip(len(keys))
			img.FlipBit(keys[idx], bit)
			n.inj.NoteFlip(keys[idx], bit)
			n.stat.IncAt(cutBitFlips)
		}
	}
	return img
}

// Image returns the durable content as if every queued write completed
// cleanly — the fault-free final image. It does not consume the queues.
// It panics when no plane is attached.
func (n *NVM) Image() *Image {
	n.RequirePlane("NVM.Image")
	img := n.plane.Snapshot()
	for b := range n.pending {
		n.pending[b].each(func(w pendingWrite, words []uint64) {
			for j, v := range words {
				img.Put(w.addr+uint64(j*8), v)
			}
		})
	}
	return img
}
