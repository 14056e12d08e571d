package tracefile

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

func testShape() Shape {
	return Shape{Cores: 16, CoresPerVD: 4, LineSize: 64, Seed: 42}
}

// record writes accs to path on fsys and returns the writer's counters.
func record(t *testing.T, fsys fault.FS, path string, shape Shape, accs []trace.Access) *Writer {
	t.Helper()
	w, err := Create(fsys, path, shape)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, a := range accs {
		if err := w.Append(a); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return w
}

// readAll decodes path until EOF or error, returning the salvaged records
// and the terminal error (nil for a clean EOF).
func readAll(t *testing.T, fsys fault.FS, path string) ([]trace.Access, *Reader, error) {
	t.Helper()
	r, err := OpenReader(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatalf("reader close: %v", err)
		}
	}()
	var got []trace.Access
	for {
		a, err := r.Next()
		if err == io.EOF {
			return got, r, nil
		}
		if err != nil {
			return got, r, err
		}
		got = append(got, a)
	}
}

// lcg is a tiny deterministic generator for synthetic streams.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g)
}

func synthetic(n int, seed uint64) []trace.Access {
	g := lcg(seed)
	accs := make([]trace.Access, n)
	for i := range accs {
		r := g.next()
		a := trace.Access{
			Tid:   int(r % 16),
			Addr:  (1 << 30) + (r>>8)%(1<<20)*64,
			Write: r&1 == 0,
		}
		if a.Write {
			a.Data = g.next()
		}
		accs[i] = a
	}
	return accs
}

// driverLike mirrors a driver's stream: 16 threads, line-aligned
// addresses over a 16 MB span, and half stores whose payload tokens count
// up by one. Counting tokens put every store on decode's inlined fast
// path, which synthetic's random tokens never reach.
func driverLike(n int, seed uint64) []trace.Access {
	g := lcg(seed)
	accs := make([]trace.Access, n)
	var token uint64
	for i := range accs {
		r := g.next()
		a := trace.Access{Tid: int(r >> 60), Addr: (1 << 30) + (r>>20)%(1<<18)*64}
		if r>>59&1 == 0 {
			token++
			a.Write, a.Data = true, token
		}
		accs[i] = a
	}
	return accs
}

func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		accs []trace.Access
		// maxBytes bounds the file size per access (0: unbounded).
		maxBytes float64
	}{
		{name: "empty"},
		{name: "single-read", accs: []trace.Access{{Tid: 3, Addr: 0x40000040}}},
		{name: "single-write", accs: []trace.Access{{Tid: 15, Addr: 0x40000040, Write: true, Data: 7}}},
		{name: "max-uint64-addr", accs: []trace.Access{
			{Tid: 0, Addr: math.MaxUint64, Write: true, Data: math.MaxUint64},
			{Tid: 1, Addr: 0}, // delta wraps all the way back down
			{Tid: 2, Addr: math.MaxUint64},
		}},
		{name: "backwards-deltas", accs: []trace.Access{
			{Tid: 0, Addr: 1 << 40},
			{Tid: 0, Addr: 64},
			{Tid: 0, Addr: 1 << 50, Write: true, Data: 100},
			{Tid: 0, Addr: 0, Write: true, Data: 1}, // token also runs backwards
		}},
		{name: "wrapped-16bit-epochs", accs: func() []trace.Access {
			// Payload tokens cycling through a 16-bit wrap, the shape a
			// wrapped WireEpoch stream produces: forward deltas up to
			// 65535, then a large backwards jump.
			var accs []trace.Access
			for i := 0; i < 200_000; i += 1017 {
				accs = append(accs, trace.Access{
					Tid: i % 16, Addr: uint64(i) * 64, Write: true, Data: uint64(i % 65536),
				})
			}
			return accs
		}()},
		{name: "zero-addr-run", accs: []trace.Access{
			{Tid: 0, Addr: 0}, {Tid: 0, Addr: 0}, {Tid: 0, Addr: 0, Write: true, Data: 0},
		}},
		{name: "multi-chunk", accs: synthetic(60_000, 1)},
		// Delta/varint coding must land well under raw 25-byte records.
		{name: "driver-like", accs: driverLike(200_000, 7), maxBytes: 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fault.NewMemFS()
			shape := testShape()
			shape.Extra = []uint64{11, 22, 33}
			w := record(t, fsys, "t.trc", shape, tc.accs)
			if w.Records() != uint64(len(tc.accs)) {
				t.Fatalf("writer records = %d, want %d", w.Records(), len(tc.accs))
			}
			if per := float64(w.Bytes()) / float64(len(tc.accs)); tc.maxBytes > 0 && per > tc.maxBytes {
				t.Fatalf("%.2f bytes/access, want <= %g", per, tc.maxBytes)
			}
			got, r, err := readAll(t, fsys, "t.trc")
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(got) != len(tc.accs) {
				t.Fatalf("decoded %d records, want %d", len(got), len(tc.accs))
			}
			for i := range tc.accs {
				if got[i] != tc.accs[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], tc.accs[i])
				}
			}
			if r.records != uint64(len(tc.accs)) || r.chunks != w.Chunks() {
				t.Fatalf("reader counters records=%d chunks=%d, writer records=%d chunks=%d",
					r.records, r.chunks, w.Records(), w.Chunks())
			}
			rs := r.Shape()
			if rs.Cores != shape.Cores || rs.CoresPerVD != shape.CoresPerVD ||
				rs.LineSize != shape.LineSize || rs.Seed != shape.Seed {
				t.Fatalf("shape round-trip: %+v vs %+v", rs, shape)
			}
			if len(rs.Extra) != 3 || rs.Extra[0] != 11 || rs.Extra[2] != 33 {
				t.Fatalf("extra round-trip: %v", rs.Extra)
			}
		})
	}
}

func TestMultiChunkStaysFlat(t *testing.T) {
	// A 60K-record trace spans several chunks; the reader buffer must stay
	// chunk-sized, not trace-sized.
	fsys := fault.NewMemFS()
	w := record(t, fsys, "t.trc", testShape(), synthetic(60_000, 2))
	if w.Chunks() < 3 {
		t.Fatalf("expected a multi-chunk trace, got %d chunks", w.Chunks())
	}
	r, err := OpenReader(fsys, "t.trc")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if cap(r.recs) > maxChunkRecs {
			t.Fatalf("reader buffer grew to %d records", cap(r.recs))
		}
	}
}

func TestShapeValidation(t *testing.T) {
	fsys := fault.NewMemFS()
	bad := []Shape{
		{Cores: 0},
		{Cores: -1},
		{Cores: 4, LineSize: -64},
		{Cores: 4, Extra: make([]uint64, MaxExtraWords+1)},
	}
	for i, s := range bad {
		if _, err := Create(fsys, "bad.trc", s); err == nil {
			t.Fatalf("shape %d accepted: %+v", i, s)
		}
	}
}

func TestWriterRejectsBadTidAndLateAppend(t *testing.T) {
	fsys := fault.NewMemFS()
	w, err := Create(fsys, "t.trc", testShape())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(trace.Access{Tid: 16}); err == nil {
		t.Fatal("out-of-range tid accepted")
	}
	if err := w.Append(trace.Access{Tid: -1}); err == nil {
		t.Fatal("negative tid accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(trace.Access{Tid: 0}); err == nil {
		t.Fatal("append after Close accepted")
	}
}

// rewrite replaces path's content on fsys.
func rewrite(t *testing.T, fsys fault.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// chunkOffsets parses a well-formed trace and returns the byte offset of
// each chunk frame (including the end marker).
func chunkOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	nextra := binary.LittleEndian.Uint64(data[6*8:])
	off := (headerFixedWords + int(nextra) + 1) * 8
	var offs []int
	for off < len(data) {
		offs = append(offs, off)
		hdr := binary.LittleEndian.Uint64(data[off:])
		plen := int(hdr & 0xffffffff)
		if plen == 0 {
			break
		}
		off += 8 + plen + 8
	}
	return offs
}

// TestCorruptionMatrix mirrors TestTornFileCorruption's style: each row
// damages a well-formed multi-chunk trace in one specific way and asserts
// the typed error plus the salvage behaviour.
func TestCorruptionMatrix(t *testing.T) {
	accs := synthetic(60_000, 3)
	base := fault.NewMemFS()
	record(t, base, "t.trc", testShape(), accs)
	pristine, err := base.ReadFile("t.trc")
	if err != nil {
		t.Fatal(err)
	}
	offs := chunkOffsets(t, pristine)
	if len(offs) < 4 {
		t.Fatalf("need >= 3 chunks + end marker, got %d frames", len(offs))
	}

	// perChunk[i] is the record count of chunk i, from its header word.
	perChunk := make([]uint64, len(offs)-1)
	for i := range perChunk {
		perChunk[i] = binary.LittleEndian.Uint64(pristine[offs[i]:]) >> 32
	}
	sumThrough := func(n int) uint64 {
		var s uint64
		for i := 0; i < n; i++ {
			s += perChunk[i]
		}
		return s
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		want    error // typed error class
		openErr bool  // error surfaces at OpenReader, not Next
		salvage uint64
	}{
		{
			name:    "truncated-header",
			mutate:  func(b []byte) []byte { return b[:20] },
			want:    ErrTruncated,
			openErr: true,
		},
		{
			name: "bad-magic",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[0:], 0xdeadbeef)
				return b
			},
			want:    ErrFormat,
			openErr: true,
		},
		{
			name: "bad-version",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[8:], 99)
				return b
			},
			want:    ErrFormat,
			openErr: true,
		},
		{
			name: "flipped-header-byte",
			mutate: func(b []byte) []byte {
				b[3*8] ^= 0x40 // coresPerVD word
				return b
			},
			want:    ErrChecksum,
			openErr: true,
		},
		{
			name:    "torn-final-chunk",
			mutate:  func(b []byte) []byte { return b[:offs[len(offs)-2]+13] },
			want:    ErrTruncated,
			salvage: sumThrough(len(perChunk) - 1),
		},
		{
			name:    "missing-end-marker",
			mutate:  func(b []byte) []byte { return b[:offs[len(offs)-1]] },
			want:    ErrTruncated,
			salvage: uint64(len(accs)),
		},
		{
			name: "flipped-payload-byte-chunk1",
			mutate: func(b []byte) []byte {
				b[offs[1]+17] ^= 0x01
				return b
			},
			want:    ErrChecksum,
			salvage: sumThrough(1),
		},
		{
			name: "flipped-checksum-byte-chunk2",
			mutate: func(b []byte) []byte {
				hdr := binary.LittleEndian.Uint64(b[offs[2]:])
				plen := int(hdr & 0xffffffff)
				b[offs[2]+8+plen] ^= 0x80
				return b
			},
			want:    ErrChecksum,
			salvage: sumThrough(2),
		},
		{
			name: "oversized-chunk-claim",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint64(b[offs[0]:], uint64(maxChunkBytes+1))
				return b
			},
			want:    ErrFormat,
			salvage: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fault.NewMemFS()
			rewrite(t, fsys, "t.trc", tc.mutate(append([]byte(nil), pristine...)))
			got, r, err := readAll(t, fsys, "t.trc")
			if err == nil {
				t.Fatal("damage decoded cleanly")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want class %v", err, tc.want)
			}
			if tc.openErr {
				if r != nil {
					t.Fatal("damaged header produced a reader")
				}
				return
			}
			if uint64(len(got)) != tc.salvage {
				t.Fatalf("salvaged %d records, want %d", len(got), tc.salvage)
			}
			if r.records != tc.salvage {
				t.Fatalf("reader counted %d records, want salvage %d", r.records, tc.salvage)
			}
			// Salvaged prefix is intact, not garbage.
			for i := range got {
				if got[i] != accs[i] {
					t.Fatalf("salvaged record %d = %+v, want %+v", i, got[i], accs[i])
				}
			}
			// The terminal error is latched: Next keeps returning it.
			r2, err2 := OpenReader(fsys, "t.trc")
			if err2 != nil {
				t.Fatal(err2)
			}
			defer func() {
				if err := r2.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			var firstErr error
			for {
				_, err := r2.Next()
				if err != nil {
					firstErr = err
					break
				}
			}
			if _, err := r2.Next(); !errors.Is(err, tc.want) || err.Error() != firstErr.Error() {
				t.Fatalf("error not latched: %v then %v", firstErr, err)
			}
		})
	}
}

// TestDecodeBoundsCheckedAgainstForgedPayload: a chunk whose checksum is
// valid (re-stamped by the attacker/test) but whose payload lies about its
// record count yields ErrFormat, never a panic.
func TestDecodeBoundsCheckedAgainstForgedPayload(t *testing.T) {
	shape := testShape()
	forge := func(payload []byte, nrecs uint64) []byte {
		hdrWords := shape.headerWords()
		var b []byte
		for _, w := range hdrWords {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		hdr := uint64(len(payload)) | nrecs<<32
		b = binary.LittleEndian.AppendUint64(b, hdr)
		b = append(b, payload...)
		b = binary.LittleEndian.AppendUint64(b, chunkCheck(hdr, payload))
		// Clean end marker after the forged chunk.
		b = binary.LittleEndian.AppendUint64(b, 0)
		return binary.LittleEndian.AppendUint64(b, chunkCheck(0, nil))
	}
	cases := []struct {
		name    string
		payload []byte
		nrecs   uint64
	}{
		{"count-exceeds-payload", []byte{0x00, 0x00}, 5},             // one read record, claims five
		{"payload-exceeds-count", []byte{0x00, 0x00, 0x00, 0x00}, 1}, // two records, claims one
		{"truncated-varint", []byte{0x80, 0x80, 0x80}, 1},            // head varint never terminates
		{"tid-out-of-range", []byte{0xff, 0x01, 0x00}, 1},            // tid 255 on a 16-core shape
		{"varint-overflow", append([]byte{0x00}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}...), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := fault.NewMemFS()
			rewrite(t, fsys, "t.trc", forge(tc.payload, tc.nrecs))
			_, _, err := readAll(t, fsys, "t.trc")
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("error = %v, want ErrFormat", err)
			}
		})
	}
}

// TestZigzag checks the fast path's unzigzag inverts the signed varint
// the writer appends with binary.AppendVarint.
func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		u, n := binary.Uvarint(binary.AppendVarint(nil, v))
		if n <= 0 {
			t.Fatalf("varint of %d does not decode as a uvarint (n=%d)", v, n)
		}
		if got := unzigzag(u); got != v {
			t.Fatalf("zigzag round-trip %d -> %d", v, got)
		}
	}
}
