package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe measures the host's speed with fixed work that runs no
// repository code, so a change to the simulator cannot move it. On a
// shared host the speed drifts by 10-50% over tens of seconds, most for
// code that misses in the caches, as the simulator does. The probe makes
// random updates to a 32 MB open-addressing table, which follows that
// drift. The table is mapped outside the Go heap so it does not change
// when the garbage collector runs.
type hostProbe struct {
	mem   []byte
	slots []uint64 // key, value pairs; key 0 marks a free slot
	times []time.Duration
	last  time.Time
}

const (
	probeKeys  = 1 << 20
	probeSlots = 1 << 21
	probeIters = 1 << 17

	// probeRef is the probe's median time on the reference host when it
	// is quiet (see README.md).
	probeRef = 3200 * time.Microsecond

	// probeEvery is how often the runner samples the probe between cells:
	// often enough to follow the host through a run, at about 2% of it.
	probeEvery = 200 * time.Millisecond
)

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeSlots*16, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	p := &hostProbe{mem: mem, slots: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), 2*probeSlots)}
	for k := uint64(1); k <= probeKeys; k++ {
		p.slot(k)
	}
	return p, nil
}

// close unmaps the table.
func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// slot returns the index of key k's value, inserting k if it is absent.
func (p *hostProbe) slot(k uint64) int {
	i := (k * 0x9e3779b97f4a7c15) >> 20 & (probeSlots - 1)
	for {
		switch p.slots[2*i] {
		case k:
			return int(2*i + 1)
		case 0:
			p.slots[2*i] = k
			return int(2*i + 1)
		}
		i = (i + 1) & (probeSlots - 1)
	}
}

// sample runs the probe once and records its time.
func (p *hostProbe) sample() {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.slots[p.slot(x&(probeKeys-1)+1)] += x
	}
	p.last = time.Now()
	p.times = append(p.times, p.last.Sub(start))
}

// due reports whether probeEvery has passed since the last sample.
func (p *hostProbe) due() bool { return time.Since(p.last) >= probeEvery }

// median returns the median probe time.
func (p *hostProbe) median() time.Duration {
	ts := append([]time.Duration(nil), p.times...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[len(ts)/2]
}

// scale is the factor that turns this run's wall times into reference-host
// times: the square root of probeRef over the run's median probe time.
// The probe's time swings about twice as far as the simulator's when the
// host is busy, so the square root matches the two (README.md has the
// runs this was measured on).
func (p *hostProbe) scale() float64 { return math.Sqrt(float64(probeRef) / float64(p.median())) }
