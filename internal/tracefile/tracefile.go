// Package tracefile implements the TRC1 on-disk trace format: a
// delta/varint-encoded, chunked, checksummed binary encoding of a memory
// access stream, with a streaming Writer and Reader that hold one chunk in
// memory at any trace length. Captured workloads become first-class,
// compact, reproducible inputs to the replay machinery (the driver's
// replay source, diffcheck's file-backed regimes, nvcheck record/replay)
// instead of living in RAM as []Op slices that cap trace length.
//
// # Layout
//
// A trace file is a header followed by a sequence of chunks, terminated by
// an end-marker chunk. All fixed-width fields are little-endian uint64
// words; the checksum discipline is internal/mem's (RecordCheck for the
// header, PairMix folding for chunk payloads), so a trace record validates
// with the same primitives as the durable plane's on-disk records.
//
//	header:  [magic, version, cores, coresPerVD, lineSize, seed,
//	          nextra, extra[0..nextra), check]
//	chunk:   [len|recs] payload[len] [check]
//	end:     [0] [check]
//
// The chunk header word packs the payload byte length (low 32 bits) and
// the record count (high 32 bits); the trailing check word folds the
// header word and the payload. Damage — a torn tail, a flipped byte —
// fails the chunk it lands in, and the Reader salvages every record up to
// the last intact chunk boundary before returning a typed error.
//
// # Records
//
// Each record encodes one access as two to three varints:
//
//	head:  uvarint(tid<<1 | write)
//	addr:  varint of (addr - prevAddr), wrapping mod 2^64
//	token: varint of (data - prevToken), stores only
//
// These are encoding/binary's LEB128 uvarint and zigzag varint.
//
// Delta state (prevAddr, prevToken) resets at every chunk boundary so each
// chunk decodes independently of damaged predecessors. Sequential and
// strided streams encode in two to four bytes per access; the deltas wrap
// modulo 2^64, so max-uint64 addresses and backwards jumps cost at most a
// full ten-byte varint, never an error.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/trace"
)

const (
	// Magic identifies a TRC1 trace file ("NVO-TRC1").
	Magic uint64 = 0x4e564f2d54524331
	// Version is the format version this package reads and writes.
	Version = 1

	// MaxExtraWords bounds the caller-defined header extension.
	MaxExtraWords = 64

	// chunkTarget is the payload size a Writer flushes at.
	chunkTarget = 64 << 10
	// maxChunkBytes is the largest chunk payload a Reader accepts; a
	// header word claiming more is corruption, not data.
	maxChunkBytes = 1 << 20
	// maxChunkRecs likewise bounds the per-chunk record count.
	maxChunkRecs = 1 << 20

	// headerFixedWords counts the header words before the extra section.
	headerFixedWords = 7

	// chunkCheckSeed seeds the per-chunk payload digest ("TRCCHUNK").
	chunkCheckSeed uint64 = 0x5452434348554e4b
)

// Typed decode errors. Every Reader failure wraps exactly one of these, so
// callers can distinguish structural garbage from damage to a valid file.
var (
	// ErrFormat marks structural corruption: a bad magic or version, an
	// out-of-range length or record field, varint overflow, or payload
	// bytes left over after the declared record count.
	ErrFormat = errors.New("tracefile: malformed trace")
	// ErrChecksum marks a header or chunk whose checksum does not match
	// its content.
	ErrChecksum = errors.New("tracefile: checksum mismatch")
	// ErrTruncated marks a file that ends mid-header, mid-chunk, or
	// before the end marker (a torn tail after a crash or partial copy).
	ErrTruncated = errors.New("tracefile: truncated trace")
)

// Shape is the machine shape a trace was captured on, stored in the header
// so a replay can rebuild the same configuration. Extra carries up to
// MaxExtraWords caller-defined words (diffcheck packs its full trace
// parameters there), checksummed with the rest of the header and
// round-tripped verbatim.
type Shape struct {
	Cores      int
	CoresPerVD int
	LineSize   int
	Seed       int64
	Extra      []uint64
}

// validate rejects shapes the format cannot represent.
func (s Shape) validate() error {
	switch {
	case s.Cores <= 0:
		return fmt.Errorf("tracefile: shape needs at least one core, got %d", s.Cores)
	case s.CoresPerVD < 0 || s.LineSize < 0:
		return fmt.Errorf("tracefile: negative shape field")
	case len(s.Extra) > MaxExtraWords:
		return fmt.Errorf("tracefile: %d extra header words exceed the %d-word bound", len(s.Extra), MaxExtraWords)
	}
	return nil
}

// headerWords renders the checksummed header record.
func (s Shape) headerWords() []uint64 {
	words := make([]uint64, 0, headerFixedWords+len(s.Extra)+1)
	words = append(words, Magic, Version, uint64(s.Cores), uint64(s.CoresPerVD),
		uint64(s.LineSize), uint64(s.Seed), uint64(len(s.Extra)))
	words = append(words, s.Extra...)
	return append(words, mem.RecordCheck(words))
}

// chunkCheck folds a chunk's header word and payload bytes into the
// trailing check word. The payload is folded eight bytes at a time with
// the final partial word zero-padded; the header word carries the true
// byte length, so padding cannot alias a different payload.
func chunkCheck(hdr uint64, payload []byte) uint64 {
	c := mem.PairMix(chunkCheckSeed, hdr)
	for len(payload) >= 8 {
		c = mem.PairMix(c, binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
	if len(payload) > 0 {
		var w uint64
		for i, b := range payload {
			w |= uint64(b) << (8 * i)
		}
		c = mem.PairMix(c, w)
	}
	return c
}

// unzigzag inverts the zigzag mapping binary.AppendVarint applies to a
// signed delta.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams accesses into a trace file, holding one chunk of payload
// in memory regardless of trace length. The first I/O error latches: every
// later Append and the final Close return it.
type Writer struct {
	f     fault.File
	shape Shape

	payload []byte // current chunk's encoded records
	frame   []byte // reusable on-disk frame (header + payload + check)
	recs    uint64 // records in the current chunk
	prev    uint64 // previous address (delta base, reset per chunk)
	prevTok uint64 // previous store token (delta base, reset per chunk)

	records uint64
	chunks  int
	bytes   int64

	err    error
	closed bool
}

// Create opens path for writing on fsys and writes the TRC1 header.
func Create(fsys fault.FS, path string, shape Shape) (*Writer, error) {
	if err := shape.validate(); err != nil {
		return nil, err
	}
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: create: %w", err)
	}
	shape.Extra = append([]uint64(nil), shape.Extra...) // detach from the caller
	w := &Writer{f: f, shape: shape, payload: make([]byte, 0, chunkTarget+32)}
	hdr := shape.headerWords()
	buf := make([]byte, 8*len(hdr))
	for i, v := range hdr {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	if _, err := f.Write(buf); err != nil {
		w.err = fmt.Errorf("tracefile: header: %w", err)
		if cerr := f.Close(); cerr != nil {
			// The write error is the one worth reporting.
			_ = cerr
		}
		return nil, w.err
	}
	w.bytes = int64(len(buf))
	return w, nil
}

// Append encodes one access. It implements trace.Sink, so a *Writer plugs
// directly into the driver's record hook.
func (w *Writer) Append(a trace.Access) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("tracefile: append after Close")
	}
	if a.Tid < 0 || a.Tid >= w.shape.Cores {
		return fmt.Errorf("tracefile: tid %d out of range for %d cores", a.Tid, w.shape.Cores)
	}
	head := uint64(a.Tid) << 1
	if a.Write {
		head |= 1
	}
	w.payload = binary.AppendUvarint(w.payload, head)
	w.payload = binary.AppendVarint(w.payload, int64(a.Addr-w.prev))
	w.prev = a.Addr
	if a.Write {
		w.payload = binary.AppendVarint(w.payload, int64(a.Data-w.prevTok))
		w.prevTok = a.Data
	}
	w.recs++
	w.records++
	if len(w.payload) >= chunkTarget {
		w.flushChunk()
	}
	return w.err
}

// flushChunk writes the buffered payload as one framed chunk and resets
// the delta state so the next chunk decodes independently.
func (w *Writer) flushChunk() {
	if w.err != nil {
		return
	}
	hdr := uint64(len(w.payload)) | w.recs<<32
	w.frame = w.frame[:0]
	w.frame = binary.LittleEndian.AppendUint64(w.frame, hdr)
	w.frame = append(w.frame, w.payload...)
	w.frame = binary.LittleEndian.AppendUint64(w.frame, chunkCheck(hdr, w.payload))
	if _, err := w.f.Write(w.frame); err != nil {
		w.err = fmt.Errorf("tracefile: chunk write: %w", err)
		return
	}
	w.bytes += int64(len(w.frame))
	w.chunks++
	w.payload = w.payload[:0]
	w.recs = 0
	w.prev = 0
	w.prevTok = 0
}

// Close flushes the final partial chunk, writes the end marker, syncs and
// closes the file. A trace without its end marker reads back as truncated,
// so Close is what makes a recording complete.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.recs > 0 {
		w.flushChunk()
	}
	if w.err == nil {
		var end [16]byte
		binary.LittleEndian.PutUint64(end[8:], chunkCheck(0, nil))
		if _, err := w.f.Write(end[:]); err != nil {
			w.err = fmt.Errorf("tracefile: end marker: %w", err)
		} else {
			w.bytes += 16
		}
	}
	if w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("tracefile: sync: %w", err)
		}
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("tracefile: close: %w", err)
	}
	return w.err
}

// Records returns the number of accesses appended so far.
func (w *Writer) Records() uint64 { return w.records }

// Chunks returns the number of chunks flushed so far.
func (w *Writer) Chunks() int { return w.chunks }

// Bytes returns the bytes written so far, including the header.
func (w *Writer) Bytes() int64 { return w.bytes }

// Reader streams accesses back out of a trace file, decoding one chunk at
// a time into a reused buffer. Next yields every record of every intact
// chunk in order; at a clean end marker it returns io.EOF, and at the
// first damaged chunk it returns a typed error (ErrTruncated, ErrChecksum
// or ErrFormat) — everything yielded before that is the salvage, exactly
// the records up to the last intact chunk boundary.
type Reader struct {
	f     fault.File
	shape Shape

	recs  []trace.Access // decoded current chunk
	pos   int
	frame []byte // reusable chunk read buffer

	records uint64
	chunks  int

	done bool
	err  error // latched terminal state: io.EOF or a typed damage error
}

// OpenReader opens a trace file and validates its header.
func OpenReader(fsys fault.FS, path string) (*Reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: open: %w", err)
	}
	r := &Reader{f: f}
	if err := r.readHeader(); err != nil {
		if cerr := f.Close(); cerr != nil {
			// The header error is the one worth reporting.
			_ = cerr
		}
		return nil, err
	}
	return r, nil
}

// readWords reads n little-endian words, distinguishing truncation from
// I/O failure.
func (r *Reader) readWords(dst []uint64, what string) error {
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r.f, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: short %s", ErrTruncated, what)
		}
		return fmt.Errorf("tracefile: reading %s: %w", what, err)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return nil
}

// readHeader decodes and validates the TRC1 header.
func (r *Reader) readHeader() error {
	fixed := make([]uint64, headerFixedWords)
	if err := r.readWords(fixed, "header"); err != nil {
		return err
	}
	if fixed[0] != Magic {
		return fmt.Errorf("%w: bad magic %#x", ErrFormat, fixed[0])
	}
	if fixed[1] != Version {
		return fmt.Errorf("%w: unsupported version %d", ErrFormat, fixed[1])
	}
	nextra := fixed[6]
	if nextra > MaxExtraWords {
		return fmt.Errorf("%w: %d extra header words exceed the %d-word bound", ErrFormat, nextra, MaxExtraWords)
	}
	rest := make([]uint64, nextra+1)
	if err := r.readWords(rest, "header"); err != nil {
		return err
	}
	all := append(fixed, rest...)
	if all[len(all)-1] != mem.RecordCheck(all[:len(all)-1]) {
		return fmt.Errorf("%w: header", ErrChecksum)
	}
	cores := int(fixed[2])
	if cores <= 0 {
		return fmt.Errorf("%w: header claims %d cores", ErrFormat, cores)
	}
	r.shape = Shape{
		Cores:      cores,
		CoresPerVD: int(fixed[3]),
		LineSize:   int(fixed[4]),
		Seed:       int64(fixed[5]),
		Extra:      append([]uint64(nil), rest[:nextra]...),
	}
	return nil
}

// Shape returns the machine shape recorded in the header.
func (r *Reader) Shape() Shape { return r.shape }

// Next returns the next recorded access. It implements trace.Source: a
// clean end of trace is io.EOF; damage is a typed non-EOF error, returned
// again on every subsequent call. The in-chunk path is branch-free enough
// to inline; chunk refills go through nextSlow.
func (r *Reader) Next() (trace.Access, error) {
	if r.pos < len(r.recs) {
		a := r.recs[r.pos]
		r.pos++
		return a, nil
	}
	return r.nextSlow()
}

// nextSlow refills from the next chunk (or latches the terminal state).
func (r *Reader) nextSlow() (trace.Access, error) {
	for r.pos >= len(r.recs) {
		if r.done {
			return trace.Access{}, r.err
		}
		r.loadChunk()
	}
	a := r.recs[r.pos]
	r.pos++
	return a, nil
}

// fail latches a terminal decode state.
func (r *Reader) fail(err error) {
	r.done = true
	r.err = err
	r.recs = r.recs[:0]
	r.pos = 0
}

// loadChunk reads and decodes the next chunk into r.recs, or latches the
// terminal state (clean EOF or typed damage).
func (r *Reader) loadChunk() {
	var hdrBuf [8]byte
	n, err := io.ReadFull(r.f, hdrBuf[:])
	if err != nil {
		if (err == io.EOF || err == io.ErrUnexpectedEOF) && n >= 0 {
			r.fail(fmt.Errorf("%w: trace ends without its end marker after %d records", ErrTruncated, r.records))
			return
		}
		r.fail(fmt.Errorf("tracefile: reading chunk header: %w", err))
		return
	}
	hdr := binary.LittleEndian.Uint64(hdrBuf[:])
	plen := hdr & 0xffffffff
	nrecs := hdr >> 32
	if plen > maxChunkBytes || nrecs > maxChunkRecs {
		r.fail(fmt.Errorf("%w: chunk claims %d payload bytes, %d records", ErrFormat, plen, nrecs))
		return
	}
	if (plen == 0) != (nrecs == 0) {
		r.fail(fmt.Errorf("%w: chunk claims %d payload bytes for %d records", ErrFormat, plen, nrecs))
		return
	}
	need := int(plen) + 8
	if cap(r.frame) < need {
		r.frame = make([]byte, need)
	}
	r.frame = r.frame[:need]
	if _, err := io.ReadFull(r.f, r.frame); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.fail(fmt.Errorf("%w: torn chunk after %d records", ErrTruncated, r.records))
			return
		}
		r.fail(fmt.Errorf("tracefile: reading chunk: %w", err))
		return
	}
	payload := r.frame[:plen]
	check := binary.LittleEndian.Uint64(r.frame[plen:])
	if check != chunkCheck(hdr, payload) {
		r.fail(fmt.Errorf("%w: chunk %d", ErrChecksum, r.chunks))
		return
	}
	if plen == 0 {
		// The end marker: the trace is complete.
		r.done = true
		r.err = io.EOF
		return
	}
	if err := r.decodeChunk(payload, int(nrecs)); err != nil {
		r.fail(err)
		return
	}
	r.records += nrecs
	r.chunks++
}

// decodeChunk decodes a validated payload into r.recs. The checksum has
// already passed, but the decoder still bounds-checks every field so a
// colliding or hand-built payload yields ErrFormat, never a panic.
func (r *Reader) decodeChunk(p []byte, nrecs int) error {
	if cap(r.recs) < nrecs {
		r.recs = make([]trace.Access, nrecs)
	}
	r.recs = r.recs[:nrecs]
	r.pos = 0
	var prev, prevTok uint64
	cores := uint64(r.shape.Cores)
	i := 0
	for k := 0; k < nrecs; k++ {
		// Fast path: a one-byte head plus addr/token deltas that fit five
		// encoded bytes, with enough slack that no per-byte bounds check
		// is needed. Record decode is the replay plane's innermost loop;
		// the hand-inlined varints here (the compiler does not inline
		// binary.Uvarint) are what hold decode above 50M accesses/sec. Any
		// miss rewinds to the record start and takes the checked path,
		// where binary.Uvarint reports truncation (n == 0) and overflow
		// (n < 0) without reading past the payload.
		if len(p)-i >= 11 && p[i] < 0x80 {
			head := uint64(p[i])
			tid := head >> 1
			if tid >= cores {
				return fmt.Errorf("%w: record %d tid %d out of range for %d cores", ErrFormat, k, tid, r.shape.Cores)
			}
			var delta, tok uint64
			j := i + 1
			if b0 := uint64(p[j]); b0 < 0x80 {
				delta, j = b0, j+1
			} else if b1 := uint64(p[j+1]); b1 < 0x80 {
				delta, j = b0&0x7f|b1<<7, j+2
			} else if b2 := uint64(p[j+2]); b2 < 0x80 {
				delta, j = b0&0x7f|(b1&0x7f)<<7|b2<<14, j+3
			} else if b3 := uint64(p[j+3]); b3 < 0x80 {
				delta, j = b0&0x7f|(b1&0x7f)<<7|(b2&0x7f)<<14|b3<<21, j+4
			} else if b4 := uint64(p[j+4]); b4 < 0x80 {
				delta, j = b0&0x7f|(b1&0x7f)<<7|(b2&0x7f)<<14|(b3&0x7f)<<21|b4<<28, j+5
			} else {
				goto slow
			}
			if head&1 == 0 {
				prev += uint64(unzigzag(delta))
				r.recs[k] = trace.Access{Tid: int(tid), Addr: prev}
				i = j
				continue
			}
			if b0 := uint64(p[j]); b0 < 0x80 {
				tok, j = b0, j+1
			} else if b1 := uint64(p[j+1]); b1 < 0x80 {
				tok, j = b0&0x7f|b1<<7, j+2
			} else if b2 := uint64(p[j+2]); b2 < 0x80 {
				tok, j = b0&0x7f|(b1&0x7f)<<7|b2<<14, j+3
			} else if b3 := uint64(p[j+3]); b3 < 0x80 {
				tok, j = b0&0x7f|(b1&0x7f)<<7|(b2&0x7f)<<14|b3<<21, j+4
			} else if b4 := uint64(p[j+4]); b4 < 0x80 {
				tok, j = b0&0x7f|(b1&0x7f)<<7|(b2&0x7f)<<14|(b3&0x7f)<<21|b4<<28, j+5
			} else {
				goto slow
			}
			prev += uint64(unzigzag(delta))
			prevTok += uint64(unzigzag(tok))
			r.recs[k] = trace.Access{Tid: int(tid), Addr: prev, Write: true, Data: prevTok}
			i = j
			continue
		}
	slow:
		head, n := binary.Uvarint(p[i:])
		if n <= 0 {
			return fmt.Errorf("%w: record %d head varint", ErrFormat, k)
		}
		i += n
		tid := head >> 1
		if tid >= cores {
			return fmt.Errorf("%w: record %d tid %d out of range for %d cores", ErrFormat, k, tid, r.shape.Cores)
		}
		delta, n := binary.Uvarint(p[i:])
		if n <= 0 {
			return fmt.Errorf("%w: record %d addr varint", ErrFormat, k)
		}
		i += n
		prev += uint64(unzigzag(delta))
		a := trace.Access{Tid: int(tid), Addr: prev, Write: head&1 != 0}
		if a.Write {
			tok, n := binary.Uvarint(p[i:])
			if n <= 0 {
				return fmt.Errorf("%w: record %d token varint", ErrFormat, k)
			}
			i += n
			prevTok += uint64(unzigzag(tok))
			a.Data = prevTok
		}
		r.recs[k] = a
	}
	if i != len(p) {
		return fmt.Errorf("%w: %d payload bytes beyond the declared records", ErrFormat, len(p)-i)
	}
	return nil
}

// Close closes the underlying file.
func (r *Reader) Close() error {
	if err := r.f.Close(); err != nil {
		return fmt.Errorf("tracefile: close: %w", err)
	}
	return nil
}
