// Package hostprof writes the host-side profiles the commands expose: a
// CPU profile, a heap profile taken at exit and a runtime execution trace.
package hostprof

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// Flags names the profile files of one run; an empty path skips that
// profile.
type Flags struct {
	CPU   string
	Mem   string
	Trace string
}

// Register adds -cpuprofile, -memprofile and -trace to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file (taken at exit)")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
}

// Run calls fn under the requested profilers and stops and writes every
// profile before it returns. The result joins fn's error with any profile
// error: a profile file that fails to write or close is truncated.
func (f *Flags) Run(fn func() error) (err error) {
	if f.CPU != "" {
		pf, cerr := os.Create(f.CPU)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if serr := pprof.StartCPUProfile(pf); serr != nil {
			return errors.Join(fmt.Errorf("cpuprofile: %w", serr), pf.Close())
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := pf.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("cpuprofile: %w", cerr))
			}
		}()
	}
	if f.Trace != "" {
		tf, cerr := os.Create(f.Trace)
		if cerr != nil {
			return fmt.Errorf("trace: %w", cerr)
		}
		if serr := rtrace.Start(tf); serr != nil {
			return errors.Join(fmt.Errorf("trace: %w", serr), tf.Close())
		}
		defer func() {
			rtrace.Stop()
			if cerr := tf.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("trace: %w", cerr))
			}
		}()
	}
	if f.Mem != "" {
		defer func() {
			if merr := writeHeap(f.Mem); merr != nil {
				err = errors.Join(err, fmt.Errorf("memprofile: %w", merr))
			}
		}()
	}
	return fn()
}

// writeHeap writes a heap profile of the settled heap to path.
func writeHeap(path string) error {
	mf, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained allocations
	if err := pprof.WriteHeapProfile(mf); err != nil {
		return errors.Join(err, mf.Close())
	}
	return mf.Close()
}
