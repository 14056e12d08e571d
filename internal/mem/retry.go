package mem

import (
	"errors"

	"repro/internal/fault"
	"repro/internal/obs"
)

// I/O robustness policy of the file-backed plane, sitting between the
// store's writers and the fault.FS seam.
//
// Retry happens here — below bufio — because bufio.Writer latches its first
// error permanently: once a Flush fails, every later call returns the same
// error and the buffered bytes are unrecoverable. retryFile absorbs
// transient faults (short writes, transient EIO) before bufio ever sees
// them, resuming short writes from the already-written prefix so the byte
// stream reaching the file is exactly the byte stream the caller wrote.
//
// Sync is deliberately NOT retried. A failed fsync may have dropped the
// dirty pages and a retry may falsely report success (fsyncgate); the only
// sound reaction is to treat the first Sync error as final and wound the
// plane. The same goes for directory fsyncs.
const (
	// MaxIORetries bounds the transient-fault retries of one Write call.
	// The bound is small: a device that needs more than a handful of
	// retries for one write is a device to stop trusting.
	MaxIORetries = 4

	// retryBackoffCap caps the per-attempt deterministic backoff ticks.
	retryBackoffCap = 8
)

// ErrPlaneWounded is the typed error writers receive after the plane
// degrades to read-only wounded mode: a permanent write-path failure was
// latched, no further bytes will be written, and durability claims stop at
// the last published manifest. The RAM mirror stays live (snapshots keep
// working) and everything already sealed remains readable and
// salvageable; errors.Is(plane.Close(), ErrPlaneWounded) identifies the
// state.
var ErrPlaneWounded = errors.New("mem: durable plane wounded; store is read-only")

// backoffTicks is the deterministic backoff schedule: attempt i (1-based)
// charges min(2^(i-1), retryBackoffCap) abstract ticks. No wall clock is
// involved — the simulator has no real time to wait in — but the charge is
// recorded in the io_retry events, so a policy layer above (or a real
// deployment translating ticks to sleeps) sees the intended exponential
// shape.
func backoffTicks(attempt int) uint64 {
	t := uint64(1) << uint(attempt-1)
	if t > retryBackoffCap {
		return retryBackoffCap
	}
	return t
}

// retryFile adapts one fault.File with the transient-retry policy. It has
// the File write path (Write, Sync, Close), so bufio.Writer and the direct
// writers run unchanged above it.
type retryFile struct {
	f fault.File
	p *FilePlane // fault and retry events go to its bus
}

// Write writes p fully, absorbing up to MaxIORetries transient faults.
// Short writes resume from the written prefix; a permanent fault (or
// exhausting the budget) surfaces to the caller — which latches it into
// the plane via the usual fail path.
func (r *retryFile) Write(p []byte) (int, error) {
	written := 0
	retries := 0
	for {
		n, err := r.f.Write(p[written:])
		written += n
		if err == nil {
			if written < len(p) {
				// A short write without an error still means the tail is
				// unwritten; resume. (io.Writer implementations shouldn't do
				// this, but the retry layer is exactly where paranoia lives.)
				continue
			}
			return written, nil
		}
		r.p.noteIOFault("write", err)
		if !fault.IsTransient(err) || retries >= MaxIORetries {
			return written, err
		}
		retries++
		r.p.noteIORetry(retries, backoffTicks(retries))
	}
}

// Sync is passed through with no retry: fsync errors are final (fsyncgate).
func (r *retryFile) Sync() error {
	err := r.f.Sync()
	if err != nil {
		r.p.noteIOFault("sync", err)
	}
	return err
}

func (r *retryFile) Close() error { return r.f.Close() }

// noteIOFault records one observed disk fault on the plane's bus.
// Transience is what the retry policy keyed on, so it rides in Arg.
func (p *FilePlane) noteIOFault(op string, err error) {
	arg := uint64(0)
	if fault.IsTransient(err) {
		arg = 1
	}
	var aux uint64
	var de *fault.DiskError
	if errors.As(err, &de) {
		aux = uint64(de.OpIndex)
	}
	p.bus.EmitNote(obs.KindIOFault, 0, -1, p.sealedEpoch, 0, arg, aux, op)
}

// noteIORetry records one transient-fault retry attempt.
func (p *FilePlane) noteIORetry(attempt int, ticks uint64) {
	p.bus.Emit(obs.KindIORetry, 0, -1, p.sealedEpoch, 0, uint64(attempt), ticks)
}
