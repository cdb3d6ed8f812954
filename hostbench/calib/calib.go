// Package calib is the benchmark's fixed reference workload: a kernel
// of xorshift-indexed reads, integer mixing and data-dependent
// branches. Its work never changes
// with the program under test (this file imports only the standard
// library, which a test enforces), so the time it takes measures how
// fast the host is running right now. The benchmark runs it before and
// after every timed round and scales the round's wall time by Nominal ÷
// measured unit time, which cancels most of the host-speed drift a
// shared machine shows between and within processes.
package calib

import (
	"sort"
	"sync"
	"time"
)

const (
	// bigWords sizes the shared buffer: 8 MiB of uint64, larger than
	// the L2 of any current server core, so reads reach the LLC.
	bigWords = 1 << 20
	// smallWords is the buffer's leading 1 MiB, which stays in L2.
	smallWords = 1 << 17
	// tableWords is the leading 8 KiB the branchy pass reads, in L1.
	tableWords = 1 << 10
	// passSteps is one pass's work. A unit is one pass over the whole
	// buffer, one over its L2-resident head, and one branchy pass. The
	// cache library's working set sits in the LLC; the simulator's sits
	// in L2 and its code is branchy. Each part tracks the slowdown a
	// shared host inflicts on one of them.
	passSteps = 1 << 18
	// Nominal is the unit time calibrated seconds are expressed in: a
	// round whose kernel units each took Nominal keeps its wall time.
	// It is about what a unit takes on a 2.1 GHz Xeon.
	Nominal = 8 * time.Millisecond
)

// Kernel holds the read-only buffer the units scan.
type Kernel struct {
	buf  []uint64
	sink uint64
}

// New fills the buffer with a fixed pseudo-random pattern.
func New() *Kernel {
	buf := make([]uint64, bigWords)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	return &Kernel{buf: buf}
}

// Bytes is the size of the kernel's buffer.
func (k *Kernel) Bytes() int64 { return int64(len(k.buf)) * 8 }

// unit runs one unit of work seeded by seed and returns a checksum so
// the compiler cannot drop the loads.
func (k *Kernel) unit(seed uint64) uint64 {
	return pass(k.buf, bigWords-1, seed) ^ pass(k.buf, smallWords-1, seed+1) ^ branchy(k.buf, seed+2)
}

// pass reads passSteps xorshift-chosen words of buf[:mask+1].
func pass(buf []uint64, mask, seed uint64) uint64 {
	x := seed | 1
	var acc uint64
	for i := 0; i < passSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc = (acc ^ buf[x&mask]) * 0x9e3779b97f4a7c15
		acc ^= acc >> 29
	}
	return acc
}

// branchy takes a data-dependent eight-way branch per step over an
// L1-resident table, the way an interpreter or a simulator's dispatch
// does.
func branchy(buf []uint64, seed uint64) uint64 {
	x := seed | 1
	var acc uint64
	for i := 0; i < passSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := buf[x&(tableWords-1)]
		switch (v ^ acc) & 7 {
		case 0:
			acc += v
		case 1:
			acc ^= v >> 3
		case 2:
			acc = acc*31 + 7
		case 3:
			acc -= v << 1
		case 4:
			acc = acc<<5 | acc>>59
		case 5:
			acc += x
		case 6:
			acc ^= 0x5555
		default:
			acc = acc*0x9e3779b97f4a7c15 + v
		}
	}
	return acc
}

// Measure runs units kernel units on each of goroutines goroutines at
// once and returns every unit's duration, sorted.
func (k *Kernel) Measure(goroutines, units int) []time.Duration {
	if goroutines < 1 {
		goroutines = 1
	}
	out := make([]time.Duration, goroutines*units)
	sums := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := 0; u < units; u++ {
				t0 := time.Now()
				sums[g] += k.unit(uint64(g*units + u + 1))
				out[g*units+u] = time.Since(t0)
			}
		}(g)
	}
	wg.Wait()
	for _, s := range sums {
		k.sink += s
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
