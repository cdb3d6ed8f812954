package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"care/cache"
	"care/internal/synth"
)

// servicePatterns are the internal/synth service streams cache-kv
// replays, one phase each, in ServiceTraces order.
var servicePatterns = []string{"zipfian", "scan-flood", "key-churn"}

const (
	kvCapacity   = 1 << 17
	kvGoroutines = 2
	// kvOpsPerPhase is each goroutine's read count in one pattern's
	// phase.
	kvOpsPerPhase = 1 << 17
	// After one key-churn read in kvDeleteEvery, the key just read is
	// deleted. Deletes are not part of the read-through mix the repo's
	// cache benchmark issues; this is the smallest stream that still
	// gives cache.delete_ns its samples (2*2^17/4096 = 64 a round, so
	// the minimum of five traced rounds holds 320 of them).
	kvDeleteEvery = 4096
	// In a traced round, one read in kvSampleEvery is timed, and every
	// delete; a prime, so the sample never aliases with the delete
	// period.
	kvSampleEvery = 61
)

type opKind uint8

const (
	opGet    opKind = iota // Get, then PutCost on a miss
	opDelete               // Delete
)

// kvOp is one pre-generated cache operation.
type kvOp struct {
	key  uint64
	cost float64
	kind opKind
}

// valueOf is the value cached for key; every hit must return it.
func valueOf(key uint64) uint64 { return key*0x9e3779b97f4a7c15 ^ 0x5bd1e995 }

// kvCache is the part of care/cache's ShardedCache the workload calls;
// tests substitute a cache with a planted fault.
type kvCache interface {
	Get(k uint64) (uint64, bool)
	PutCost(k, v uint64, cost float64)
	Delete(k uint64) bool
	Len() int
	Stats() cache.Stats
	CheckIntegrity() error
}

// kvTally counts what one replay did, for the checks and hit ratios.
type kvTally struct {
	gets, hits, puts, deleted, badValues uint64
	patGets, patHits                     [3]uint64
	// Sampled latencies in ns (traced rounds only).
	getNS, putNS, delNS []float64
}

func (t *kvTally) add(o *kvTally) {
	t.gets += o.gets
	t.hits += o.hits
	t.puts += o.puts
	t.deleted += o.deleted
	t.badValues += o.badValues
	for i := range t.patGets {
		t.patGets[i] += o.patGets[i]
		t.patHits[i] += o.patHits[i]
	}
	t.getNS = append(t.getNS, o.getNS...)
	t.putNS = append(t.putNS, o.putNS...)
	t.delNS = append(t.delNS, o.delNS...)
}

// cacheKV drives CARE-policy ShardedCaches from two goroutines. No
// simulator code runs; the shard mutexes are the contended resource.
// Like the repo's own cache benchmark (care-bench -cache), it replays
// each service pattern read-through on a cache of its own.
type cacheKV struct {
	seed uint64
	fill []uint64
	// streams[p][g] is goroutine g's operations in pattern p's phase.
	streams [][kvGoroutines][]kvOp
	// careSpeedup is CARE's hit ratio over LRU's on the same streams,
	// replayed on one goroutine so it is exact.
	careSpeedup float64
	// measured accumulates every round's tallies, traced only the
	// traced rounds'.
	measured, traced kvTally
	evictions        uint64
	tracedRounds     int
}

func newCacheKV(seed uint64) *cacheKV { return &cacheKV{seed: seed} }

func (c *cacheKV) goroutines() int { return kvGoroutines }

func (c *cacheKV) prepare() error {
	c.fill = make([]uint64, kvCapacity)
	for k := range c.fill {
		c.fill[k] = uint64(k)
	}
	c.streams = make([][kvGoroutines][]kvOp, len(servicePatterns))
	for g := 0; g < kvGoroutines; g++ {
		for p, tr := range synth.ServiceTraces(kvCapacity, c.seed*kvGoroutines+uint64(g)) {
			if tr.Name() != servicePatterns[p] {
				return fmt.Errorf("service trace %d is %q, want %q", p, tr.Name(), servicePatterns[p])
			}
			c.streams[p][g] = genOps(tr, kvOpsPerPhase)
		}
	}
	return c.reference()
}

// inputBytes is the size of the fill keys and the op streams.
func (c *cacheKV) inputBytes() int64 {
	n := int64(cap(c.fill)) * int64(unsafe.Sizeof(uint64(0)))
	for p := range c.streams {
		for _, ops := range c.streams[p] {
			n += int64(cap(ops)) * int64(unsafe.Sizeof(kvOp{}))
		}
	}
	return n
}

// reference replays every stream on one goroutine under LRU and under
// CARE, checking each cache, for care_speedup.
func (c *cacheKV) reference() error {
	var ratio [2]float64
	for i, pol := range []string{"lru", "care"} {
		var all kvTally
		for p := range c.streams {
			kv, err := c.setup(pol)
			if err != nil {
				return err
			}
			var t kvTally
			for g := range c.streams[p] {
				replay(kv, c.streams[p][g], p, &t, false)
			}
			if err := checkKV(kv, &t, len(c.fill)); err != nil {
				return fmt.Errorf("cache-kv %s %s reference: %w", pol, servicePatterns[p], err)
			}
			all.add(&t)
			// One reference cache is alive at a time, like one measured
			// cache, so the references do not set the peak RSS.
			runtime.GC()
		}
		ratio[i] = float64(all.hits) / float64(all.gets)
	}
	c.careSpeedup = ratio[1] / ratio[0]
	return nil
}

// genOps draws n reads from tr; on key-churn, every kvDeleteEvery-th
// read is followed by a delete of its key.
func genOps(tr synth.ServiceTrace, n int) []kvOp {
	churn := tr.Name() == "key-churn"
	ops := make([]kvOp, 0, n+n/kvDeleteEvery)
	for i := 1; i <= n; i++ {
		so := tr.Next()
		ops = append(ops, kvOp{key: so.Key, cost: so.Cost, kind: opGet})
		if churn && i%kvDeleteEvery == 0 {
			ops = append(ops, kvOp{key: so.Key, kind: opDelete})
		}
	}
	return ops
}

// setup builds a cache and fills it to capacity.
func (c *cacheKV) setup(pol string) (*cache.ShardedCache[uint64, uint64], error) {
	kv, err := cache.NewSharded(cache.Options[uint64, uint64]{Capacity: kvCapacity, Policy: pol, Seed: 1})
	if err != nil {
		return nil, err
	}
	for _, k := range c.fill {
		kv.PutCost(k, valueOf(k), synth.KeyCost(k))
	}
	return kv, nil
}

// replay runs ops of pattern p against kv, counting into t; sample
// times one read in kvSampleEvery and every delete.
func replay(kv kvCache, ops []kvOp, p int, t *kvTally, sample bool) {
	for i := range ops {
		o := &ops[i]
		var t0 time.Time
		if o.kind == opDelete {
			if sample {
				t0 = time.Now()
			}
			if kv.Delete(o.key) {
				t.deleted++
			}
			if sample {
				t.delNS = append(t.delNS, float64(time.Since(t0)))
			}
			continue
		}
		timed := sample && i%kvSampleEvery == 0
		if timed {
			t0 = time.Now()
		}
		v, ok := kv.Get(o.key)
		if timed {
			t.getNS = append(t.getNS, float64(time.Since(t0)))
		}
		t.gets++
		t.patGets[p]++
		if ok {
			t.hits++
			t.patHits[p]++
			if v != valueOf(o.key) {
				t.badValues++
			}
			continue
		}
		if timed {
			t0 = time.Now()
		}
		kv.PutCost(o.key, valueOf(o.key), o.cost)
		if timed {
			t.putNS = append(t.putNS, float64(time.Since(t0)))
		}
		t.puts++
	}
}

// checkKV checks a cache after a round against what the round did:
// integrity, counter conservation, and that every hit returned its
// key's value. filled is the number of set-up Puts.
func checkKV(kv kvCache, t *kvTally, filled int) error {
	var errs []error
	if err := kv.CheckIntegrity(); err != nil {
		errs = append(errs, fmt.Errorf("integrity: %w", err))
	}
	st := kv.Stats()
	if st.Hits+st.Misses != t.gets || st.Hits != t.hits {
		errs = append(errs, fmt.Errorf("stats: hits %d + misses %d, want %d gets with %d hits", st.Hits, st.Misses, t.gets, t.hits))
	}
	if st.Inserts+st.Updates != t.puts+uint64(filled) {
		errs = append(errs, fmt.Errorf("stats: inserts %d + updates %d, want %d puts", st.Inserts, st.Updates, t.puts+uint64(filled)))
	}
	if st.Deletes != t.deleted {
		errs = append(errs, fmt.Errorf("stats: deletes %d, want %d", st.Deletes, t.deleted))
	}
	if n := uint64(kv.Len()); st.Inserts-st.Evictions-st.Deletes != n {
		errs = append(errs, fmt.Errorf("stats: inserts %d - evictions %d - deletes %d != len %d", st.Inserts, st.Evictions, st.Deletes, n))
	}
	if t.badValues > 0 {
		errs = append(errs, fmt.Errorf("%d hits returned a wrong value", t.badValues))
	}
	return errors.Join(errs...)
}

// round runs the three pattern phases one after another, each on a
// freshly built and filled cache.
func (c *cacheKV) round(id string, tr *tracer) roundOut {
	var out roundOut
	for p := range c.streams {
		for _, ops := range c.streams[p] {
			out.ops += int64(len(ops))
		}
	}
	out.work = float64(out.ops)
	var t kvTally
	var evictions uint64
	for p := range c.streams {
		pt, setup, measure, ev, err := c.phase(id, p, tr)
		out.setup += setup
		out.measure += measure
		if err != nil {
			out.failed = int64(pt.badValues)
			if out.failed == 0 {
				out.failed = out.ops
			}
			out.err = fmt.Errorf("cache-kv %s %s: %w", id, servicePatterns[p], err)
			return out
		}
		t.add(&pt)
		evictions += ev
		// Untimed: the phase's cache is garbage before the next is built.
		runtime.GC()
	}
	c.measured.add(&t)
	if tr != nil {
		c.traced.add(&t)
		c.evictions += evictions
		c.tracedRounds++
	}
	return out
}

// phase builds and fills a CARE cache, has both goroutines replay their
// pattern-p streams on it, and checks it. It returns the phase's tally,
// its set-up and measured times, and the cache's evictions.
func (c *cacheKV) phase(id string, p int, tr *tracer) (kvTally, time.Duration, time.Duration, uint64, error) {
	t0 := time.Now()
	kv, err := c.setup("care")
	if err != nil {
		return kvTally{}, 0, 0, 0, err
	}
	t1 := time.Now()
	var tallies [kvGoroutines]kvTally
	var wg sync.WaitGroup
	for g := range c.streams[p] {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := time.Now()
			replay(kv, c.streams[p][g], p, &tallies[g], tr != nil)
			tr.add(id, 0, fmt.Sprintf("replay.%s.g%d", servicePatterns[p], g), s, time.Now())
		}(g)
	}
	wg.Wait()
	t2 := time.Now()
	tr.add(id, 0, "setup."+servicePatterns[p], t0, t1)

	var t kvTally
	for i := range tallies {
		t.add(&tallies[i])
	}
	return t, t1.Sub(t0), t2.Sub(t1), kv.Stats().Evictions, checkKV(kv, &t, len(c.fill))
}

func (c *cacheKV) endToEnd(m map[string]float64) {
	m["care_speedup"] = c.careSpeedup
	m["hit_ratio"] = float64(c.measured.hits) / float64(c.measured.gets)
}

func (c *cacheKV) perLayer(tr *tracer, m map[string]float64) {
	t := &c.traced
	putDist(m, "cache.get_ns", t.getNS)
	putDist(m, "cache.put_ns", t.putNS)
	putDist(m, "cache.delete_ns", t.delNS)
	for i, p := range servicePatterns {
		if t.patGets[i] > 0 {
			m["cache.hit_ratio."+p] = float64(t.patHits[i]) / float64(t.patGets[i])
		}
	}
	if c.tracedRounds > 0 {
		m["cache.evictions"] = float64(c.evictions) / float64(c.tracedRounds)
	}
}
