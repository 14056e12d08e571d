package diffcheck

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracefile"
)

// stepSource yields the first n steps of a trace in order. Every call
// restarts from step 0 — the differential harness replays the same trace
// once per scheme — and the callback returning false stops the iteration
// early (divergence found, or a Minimize cut).
type stepSource interface {
	each(n int, f func(i int, s Step) bool) error
}

// genSource streams steps straight out of the deterministic generator.
type genSource struct{ p Params }

func (g genSource) each(n int, f func(int, Step) bool) error {
	g.p.Each(n, f)
	return nil
}

// fileSource streams steps from a recorded TRC1 trace, opening the file
// afresh per replay so each scheme reads from the start while holding one
// chunk in memory.
type fileSource struct {
	fsys fault.FS
	path string
}

func (s fileSource) each(n int, f func(int, Step) bool) (err error) {
	r, rerr := tracefile.OpenReader(s.fsys, s.path)
	if rerr != nil {
		return rerr
	}
	defer func() {
		if cerr := r.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for i := 0; i < n; i++ {
		a, rerr := r.Next()
		if rerr == io.EOF {
			return fmt.Errorf("diffcheck: trace %s holds only %d steps, need %d", s.path, i, n)
		}
		if rerr != nil {
			return rerr
		}
		if !f(i, Step{Tid: a.Tid, Addr: a.Addr, Write: a.Write, Data: a.Data}) {
			return nil
		}
	}
	return nil
}

// extraLayoutVersion versions the Params packing in the trace header's
// extra words; extraWords is its fixed length.
const (
	extraLayoutVersion = 1
	extraWords         = 11
)

// patternEnums gives each access pattern a stable wire value.
var patternEnums = []string{PatternUniform, PatternHotspot, PatternStride}

// shape packs the full Params into a tracefile header shape: the machine
// fields ride in the fixed header words, everything else in the
// checksummed extra section, so a trace file alone reproduces its run.
func (p Params) shape() (tracefile.Shape, error) {
	pat := -1
	for i, name := range patternEnums {
		if name == p.Pattern {
			pat = i
		}
	}
	if pat < 0 {
		return tracefile.Shape{}, fmt.Errorf("diffcheck: pattern %q has no wire value", p.Pattern)
	}
	var flags uint64
	if p.Walker {
		flags |= 1
	}
	if p.Buffered {
		flags |= 2
	}
	if p.Wrap {
		flags |= 4
	}
	return tracefile.Shape{
		Cores:      p.Cores,
		CoresPerVD: p.CoresPerVD,
		LineSize:   p.Config().LineSize,
		Seed:       p.Seed,
		Extra: []uint64{
			extraLayoutVersion, uint64(p.Steps), uint64(p.Lines),
			uint64(p.SharePct), uint64(p.WritePct), uint64(p.EpochSize),
			uint64(pat), flags, uint64(p.WrapWidth), uint64(p.OMCs),
			uint64(p.CrashPoints),
		},
	}, nil
}

// paramsFromShape inverts shape. The rebuilt Params must survive Validate,
// so a forged or stale header cannot smuggle an unrunnable configuration
// past the harness.
func paramsFromShape(s tracefile.Shape) (Params, error) {
	x := s.Extra
	if len(x) != extraWords || x[0] != extraLayoutVersion {
		return Params{}, fmt.Errorf("diffcheck: trace header extra layout %v not understood (want version %d, %d words)",
			x, extraLayoutVersion, extraWords)
	}
	if x[6] >= uint64(len(patternEnums)) {
		return Params{}, fmt.Errorf("diffcheck: trace header pattern enum %d unknown", x[6])
	}
	p := Params{
		Seed:        s.Seed,
		Cores:       s.Cores,
		CoresPerVD:  s.CoresPerVD,
		Steps:       int(x[1]),
		Lines:       int(x[2]),
		SharePct:    int(x[3]),
		WritePct:    int(x[4]),
		EpochSize:   int(x[5]),
		Pattern:     patternEnums[x[6]],
		Walker:      x[7]&1 != 0,
		Buffered:    x[7]&2 != 0,
		Wrap:        x[7]&4 != 0,
		WrapWidth:   uint(x[8]),
		OMCs:        int(x[9]),
		CrashPoints: int(x[10]),
	}
	if err := p.Validate(); err != nil {
		return Params{}, fmt.Errorf("diffcheck: trace header decodes to unrunnable params: %w", err)
	}
	return p, nil
}

// TraceInfo summarises one recording.
type TraceInfo struct {
	Records uint64
	Chunks  int
	Bytes   int64
}

// RecordTrace streams p's generated trace into a TRC1 file at path. The
// generation is the same prefix-stable stream the in-memory replay
// consumes, so the recording is byte-faithful by construction; memory
// stays flat in Steps. Fault-injection regimes are refused: their fault
// schedule lives in the NVM plane, outside the access stream a trace file
// captures.
func RecordTrace(fsys fault.FS, path string, p Params) (TraceInfo, error) {
	if err := p.Validate(); err != nil {
		return TraceInfo{}, err
	}
	if p.Fault != "" {
		return TraceInfo{}, fmt.Errorf("diffcheck: fault regime %q cannot be recorded: the fault schedule is not part of the access stream", p.Fault)
	}
	shape, err := p.shape()
	if err != nil {
		return TraceInfo{}, err
	}
	w, err := tracefile.Create(fsys, path, shape)
	if err != nil {
		return TraceInfo{}, err
	}
	var aerr error
	p.Each(p.Steps, func(_ int, s Step) bool {
		if err := w.Append(trace.Access{Tid: s.Tid, Addr: s.Addr, Write: s.Write, Data: s.Data}); err != nil {
			aerr = err
			return false
		}
		return true
	})
	if aerr != nil {
		// Append already latched the writer; Close reports the same error.
		_ = w.Close()
		return TraceInfo{}, aerr
	}
	if err := w.Close(); err != nil {
		return TraceInfo{}, err
	}
	return TraceInfo{Records: w.Records(), Chunks: w.Chunks(), Bytes: w.Bytes()}, nil
}

// ReadParams decodes and validates the Params a trace file was recorded
// with, without reading any of its chunks.
func ReadParams(fsys fault.FS, path string) (Params, error) {
	r, err := tracefile.OpenReader(fsys, path)
	if err != nil {
		return Params{}, err
	}
	p, perr := paramsFromShape(r.Shape())
	if cerr := r.Close(); cerr != nil && perr == nil {
		return Params{}, cerr
	}
	return p, perr
}

// RunFile is Run fed from a recorded trace file instead of the generator:
// the header's params drive the same machine configuration and
// verification schedule, and the access stream comes off disk one chunk at
// a time. A recording of Params p replayed through RunFile produces the
// identical Result and divergence verdict as Run(p). The error covers file
// damage (typed tracefile errors) and header/params mismatches; divergence
// stays a *Divergence, exactly as in Run, and bus narrates as it does
// there.
func RunFile(fsys fault.FS, path string, bus *obs.Bus) (Result, *Divergence, error) {
	p, err := ReadParams(fsys, path)
	if err != nil {
		return Result{}, nil, err
	}
	return runSource(p, fileSource{fsys: fsys, path: path}, bus)
}
