package tracefile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// Committed SHA-256 digests of two TRC1 recordings. Round-trip tests pass
// even when the writer and the reader change the format together; these
// pin the bytes on disk, so an encoder change that moves any byte fails
// here. Only a deliberate format change may update them.
const (
	// wrapRegimeDigest is diffcheck.RecordTrace of RegimeParams(1, 17):
	// the epoch wrap-around regime, so the header's wrap flag and width
	// word are pinned too.
	wrapRegimeDigest = "b80da3134d7a024e94b7d4e10d930559194e4cbd86d22c2f75ce504b0d41c408"
	// handBuiltDigest is handBuiltStream under handBuiltShape.
	handBuiltDigest = "572d0085631ed8a4cf9fa7bfcbfb5c8d1a8f7089f764cc2433b224d762c2c114"
)

// handBuiltShape carries extra header words so the extension is pinned.
var handBuiltShape = tracefile.Shape{Cores: 8, CoresPerVD: 2, LineSize: 64, Seed: 5,
	Extra: []uint64{1, 2, 3}}

// edgeRecords are the records whose encodings leave the decoder's
// five-byte fast path: a six-byte address delta, negative address and
// token deltas, the max-uint64 address and a full-width token.
func edgeRecords() []trace.Access {
	return []trace.Access{
		{Tid: 0, Addr: 0x1000},
		{Tid: 7, Addr: 0x1000 + 1<<40, Write: true, Data: 9},       // six-byte delta
		{Tid: 3, Addr: 0x40, Write: true, Data: 2},                 // negative deltas
		{Tid: 1, Addr: math.MaxUint64, Write: true, Data: 1 << 63}, // ten-byte varints
		{Tid: 2, Addr: 0},                                          // wraps back to 0
		{Tid: 5, Addr: 0x80, Write: true, Data: math.MaxUint64},
		{Tid: 6, Addr: 0x40},
	}
}

// handBuiltStream spans two chunks: the edge records, a strided run long
// enough to cross the 64 KiB chunk boundary, and the edge records again,
// so the final chunk's last 11 bytes hold whole records and the decoder's
// checked path runs on them.
func handBuiltStream() []trace.Access {
	accs := edgeRecords()
	for i := 0; i < 30000; i++ {
		a := trace.Access{Tid: i % 8, Addr: 0x10000 + uint64(i%4096)*64}
		if i%3 == 0 {
			a.Write, a.Data = true, uint64(i)+1
		}
		accs = append(accs, a)
	}
	return append(accs, edgeRecords()...)
}

// digest returns the hex SHA-256 of path on fsys.
func digest(t *testing.T, fsys *fault.MemFS, path string) string {
	t.Helper()
	data, err := fsys.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func TestTraceBytesPinned(t *testing.T) {
	t.Run("wrap-regime", func(t *testing.T) {
		fsys := fault.NewMemFS()
		if _, err := diffcheck.RecordTrace(fsys, "wrap.trc", diffcheck.RegimeParams(1, 17)); err != nil {
			t.Fatal(err)
		}
		if got := digest(t, fsys, "wrap.trc"); got != wrapRegimeDigest {
			t.Fatalf("TRC1 bytes of RegimeParams(1, 17) moved: sha256 %s, want %s", got, wrapRegimeDigest)
		}
	})
	t.Run("hand-built", func(t *testing.T) {
		fsys := fault.NewMemFS()
		w, err := tracefile.Create(fsys, "hand.trc", handBuiltShape)
		if err != nil {
			t.Fatal(err)
		}
		accs := handBuiltStream()
		for i, a := range accs {
			if err := w.Append(a); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w.Chunks() != 2 {
			t.Fatalf("hand-built stream wrote %d chunks, want 2", w.Chunks())
		}
		if got := digest(t, fsys, "hand.trc"); got != handBuiltDigest {
			t.Fatalf("TRC1 bytes of the hand-built stream moved: sha256 %s, want %s", got, handBuiltDigest)
		}
		// The pinned bytes still decode to the stream.
		r, err := tracefile.OpenReader(fsys, "hand.trc")
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		for i, want := range accs {
			got, err := r.Next()
			if err != nil || got != want {
				t.Fatalf("record %d = %+v (%v), want %+v", i, got, err, want)
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("after the last record: %v, want io.EOF", err)
		}
	})
}
