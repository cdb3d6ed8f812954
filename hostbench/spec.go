package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"care/internal/policy"
	"care/internal/sim"
	"care/internal/synth"
	"care/internal/trace"
)

// specPolicies are the LLC policies every spec-c4 round runs, in order.
var specPolicies = []string{"lru", "care"}

// specC4 is the paper's Fig. 7 multi-copy setting: four copies of
// 429.mcf on ScaledConfig(4, 16) with prefetching, under LRU and then
// CARE. Algorithm 1's per-cycle PMC scan is the host hot spot here.
type specC4 struct {
	warmup, measure uint64
	profile         synth.Profile
	// coreSeeds are the generator seeds of the four cores: the harness's
	// canonical per-core seeds, in core order. The run's seed does not
	// change them, so care_speedup and the simulated counts are one
	// fixed figure cell that moves only when simulated behaviour does.
	coreSeeds []uint64
	// first holds the first round's results; every later round, traced
	// or not, must reproduce them exactly.
	first []sim.Result
}

const specCores = 4

func newSpecC4() *specC4 {
	return &specC4{warmup: 10_000, measure: 30_000, coreSeeds: []uint64{1, 2, 3, 4}}
}

// prepare looks up the profile. The first round's results are the
// reference every later round must reproduce.
func (s *specC4) prepare() error {
	p, err := synth.Lookup("429.mcf")
	s.profile = p
	return err
}

// inputBytes is 0: traces are generated as the simulation runs.
func (s *specC4) inputBytes() int64 { return 0 }

func (s *specC4) goroutines() int { return 1 }

func (s *specC4) round(id string, tr *tracer) roundOut {
	out := roundOut{ops: int64(len(specPolicies))}
	var results []sim.Result
	for _, pol := range specPolicies {
		// Untimed: the previous policy's system is garbage, and only one
		// system is alive at a time.
		runtime.GC()
		t0 := time.Now()
		traces := make([]trace.Reader, specCores)
		for i := range traces {
			traces[i] = synth.NewScaledGenerator(s.profile, s.coreSeeds[i], 16)
		}
		cfg := sim.ScaledConfig(specCores, 16)
		cfg.LLCPolicy = policy.Policy(pol)
		cfg.Prefetch = true
		t1 := time.Now()
		sys, err := sim.New(cfg, traces)
		if err != nil {
			out.failed, out.err = out.ops, fmt.Errorf("spec-c4 %s: %w", pol, err)
			return out
		}
		t2 := time.Now()
		if _, err := sys.RunInstructions(s.warmup); err != nil {
			out.failed, out.err = out.ops, fmt.Errorf("spec-c4 %s warmup: %w", pol, err)
			return out
		}
		sys.ResetStats()
		t3 := time.Now()
		if _, err := sys.RunInstructions(s.measure); err != nil {
			out.failed, out.err = out.ops, fmt.Errorf("spec-c4 %s measure: %w", pol, err)
			return out
		}
		t4 := time.Now()
		results = append(results, sys.Snapshot())

		out.setup += t3.Sub(t0)
		out.measure += t4.Sub(t3)
		out.work += float64(specCores * s.measure)
		if tr != nil {
			parent := tr.add(id, 0, "policy."+pol, t0, t4)
			tr.add(id, parent, "synth.build", t0, t1)
			tr.add(id, parent, "sim.build", t1, t2)
			tr.add(id, parent, "sim.warmup", t2, t3)
			tr.add(id, parent, "sim.measure", t3, t4)
		}
	}

	if s.first == nil {
		s.first = results
	}
	if err := checkSpecRound(s.first, results, s.measure); err != nil {
		out.failed, out.err = out.ops, fmt.Errorf("spec-c4 %s: %w", id, err)
	}
	return out
}

// checkSpecRound checks one round's results (LRU then CARE) against the
// first round's: identical, every core past its budget, CARE faster.
func checkSpecRound(first, got []sim.Result, measure uint64) error {
	if len(got) != len(specPolicies) {
		return fmt.Errorf("%d results, want %d", len(got), len(specPolicies))
	}
	var errs []error
	if !reflect.DeepEqual(first, got) {
		errs = append(errs, errors.New("results differ from the first round's (non-deterministic)"))
	}
	for _, r := range got {
		for c, n := range r.CoreInstructions {
			if n < measure {
				errs = append(errs, fmt.Errorf("%s core %d retired %d < budget %d", r.Policy, c, n, measure))
			}
		}
	}
	if lru, care := got[0].IPCSum(), got[1].IPCSum(); !(care > lru) {
		errs = append(errs, fmt.Errorf("CARE IPC %.4f not above LRU IPC %.4f", care, lru))
	}
	return errors.Join(errs...)
}

func (s *specC4) endToEnd(m map[string]float64) {
	if len(s.first) != len(specPolicies) {
		return
	}
	lru, care := s.first[0], s.first[1]
	m["care_speedup"] = care.IPCSum() / lru.IPCSum()
	m["hit_ratio"] = llcHitRatio(care)
}

// llcHitRatio is the LLC's demand hit ratio in one result.
func llcHitRatio(r sim.Result) float64 {
	return float64(r.LLC.DemandHits) / float64(r.LLC.DemandAccesses)
}

func (s *specC4) perLayer(tr *tracer, m map[string]float64) {
	for _, phase := range []string{"synth.build", "sim.build", "sim.warmup", "sim.measure"} {
		m[phase+"_s"] = median(tr.perTrace(phase))
	}
	var ns, cycles float64
	for _, sp := range tr.named("sim.measure") {
		ns += float64(sp.End - sp.Start)
	}
	for _, r := range s.first {
		cycles += float64(r.Cycles)
	}
	if rounds := len(tr.perTrace("sim.measure")); rounds > 0 && cycles > 0 {
		m["sim.host_ns_per_cycle"] = ns / float64(rounds) / cycles
	}
	for i, pol := range specPolicies {
		if i < len(s.first) {
			putSimCounts(m, pol, s.first[i])
		}
	}
}

// putSimCounts records the exact simulated counts of one policy's run.
func putSimCounts(m map[string]float64, pol string, r sim.Result) {
	m["sim.cycles."+pol] = float64(r.Cycles)
	m["llc.demand_misses."+pol] = float64(r.LLC.DemandMisses)
	m["llc.mshr_stall_cycles."+pol] = float64(r.LLC.MSHRStallCycles)
	m["llc.pure_miss_rate."+pol] = r.LLCPMR
	m["llc.mean_pmc."+pol] = r.MeanPMC
	m["dram.reads."+pol] = float64(r.DRAM.Reads)
	if t := r.DRAM.RowHits + r.DRAM.RowMisses; t > 0 {
		m["dram.row_hit_ratio."+pol] = float64(r.DRAM.RowHits) / float64(t)
	}
}
