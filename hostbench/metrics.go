package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric: its name, unit, and direction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees. An untraced run
// (-trace 0) reports exactly these, on every workload.
var endToEnd = []metricDef{
	{"throughput", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"care_speedup", "ratio", "higher"},
	{"hit_ratio", "ratio", "higher"},
}

// perLayer are the metrics of single layers. A traced run (-trace 1)
// reports exactly these, on every workload; a layer the workload does
// not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	// dist adds a latency distribution: median, tail, the quantile the
	// tail is (the highest of 0.9/0.99/0.999 with at least ten samples
	// beyond it), and the sample count.
	dist := func(base, unit string) {
		add(base+".p50", unit, "lower")
		add(base+".tail", unit, "lower")
		add(base+".tail_q", "quantile", "higher")
		add(base+".n", "count", "higher")
	}

	// sim: phase times around sim.New, RunInstructions and ResetStats.
	add("synth.build_s", "s", "lower")
	add("sim.build_s", "s", "lower")
	add("sim.warmup_s", "s", "lower")
	add("sim.measure_s", "s", "lower")
	add("sim.host_ns_per_cycle", "ns", "lower")

	// Self-time share per package group, from a CPU profile.
	for _, g := range shareGroups {
		add(g.metric, "ratio", "lower")
	}

	// Exact simulated counts per policy; a host-speed-only change
	// leaves every one of them unmoved.
	for _, pol := range specPolicies {
		add("sim.cycles."+pol, "count", "lower")
		add("llc.demand_misses."+pol, "count", "lower")
		add("llc.mshr_stall_cycles."+pol, "count", "lower")
		add("llc.pure_miss_rate."+pol, "ratio", "lower")
		add("llc.mean_pmc."+pol, "cycles", "lower")
		add("dram.reads."+pol, "count", "lower")
		add("dram.row_hit_ratio."+pol, "ratio", "higher")
	}

	// care/cache: sampled operation timing, lock waiting, hit ratios.
	dist("cache.get_ns", "ns")
	dist("cache.put_ns", "ns")
	dist("cache.delete_ns", "ns")
	add("cache.lock_wait_share", "ratio", "lower")
	for _, p := range servicePatterns {
		add("cache.hit_ratio."+p, "ratio", "higher")
	}
	add("cache.evictions", "count", "lower")

	// server/worker: call latency through the timing proxy, exact
	// counts, and per-job timing from the event-stream witness.
	add("server.submit_ms", "ms", "lower")
	dist("server.claim_ms", "ms")
	dist("server.heartbeat_ms", "ms")
	dist("server.complete_ms", "ms")
	dist("server.artifact_put_ms", "ms")
	add("server.claims", "count", "lower")
	add("server.claims_empty", "count", "lower")
	add("server.heartbeats", "count", "lower")
	add("server.artifact_puts", "count", "lower")
	add("journal.records", "count", "lower")
	dist("fleet.queue_wait_s", "s")
	dist("fleet.run_s", "s")
	add("fleet.overhead_s.p50", "s", "lower")
	add("server.replay_s", "s", "lower")

	// host: the calibration kernel and the cost of tracing.
	add("host.calib_s.p50", "s", "lower")
	add("host.calib_iqr", "ratio", "lower")
	add("host.wall_throughput", "1/s", "higher")
	add("trace.overhead", "ratio", "lower")
	return out
}

// shareGroup sums the self time of the packages it names.
type shareGroup struct {
	metric   string
	packages []string
}

// shareGroups maps package self time onto the *.self_share metrics. A
// package path matches an entry equal to it or nested under it; the
// longest matching entry wins.
var shareGroups = []shareGroup{
	{"pmc.self_share", []string{"care/internal/core/pmc"}},
	{"cache.self_share", []string{"care/internal/cache"}},
	{"cpu.self_share", []string{"care/internal/cpu"}},
	{"dram.self_share", []string{"care/internal/dram"}},
	{"replacement.self_share", []string{"care/internal/replacement", "care/internal/core/care"}},
	{"prefetch.self_share", []string{"care/internal/prefetch"}},
	{"sim.self_share", []string{"care/internal/sim"}},
	{"runtime.self_share", []string{"runtime", "internal/runtime"}},
	{"server.self_share", []string{"care/internal/server"}},
	{"worker.self_share", []string{"care/internal/worker"}},
	{"harness.self_share", []string{"care/internal/harness"}},
	{"checkpoint.self_share", []string{"care/internal/checkpoint", "encoding/gob"}},
	{"http.self_share", []string{"net/http", "encoding/json"}},
	{"cachelib.self_share", []string{"care/cache"}},
	{"reflect.self_share", []string{"reflect"}},
	{"syscall.self_share", []string{"syscall", "internal/runtime/syscall", "internal/poll", "os"}},
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (mean of the middle two), or 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// iqrShare is the interquartile range of xs as a share of its median,
// with quartiles placed as Python's statistics.quantiles(n=4) places
// them (the "exclusive" method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / m
}

// tailQuantiles are the tails a distribution may report, highest last.
var tailQuantiles = []float64{0.9, 0.99, 0.999}

// putDist records a distribution under base: .p50, .tail, .tail_q and
// .n. The tail is the highest quantile with at least ten samples
// beyond it; with too few samples for any, the maximum is reported
// with tail_q 1.
func putDist(m map[string]float64, base string, xs []float64) {
	m[base+".n"] = float64(len(xs))
	if len(xs) == 0 {
		return
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m[base+".p50"] = median(s)
	q, v := 1.0, s[len(s)-1]
	for _, tq := range tailQuantiles {
		idx := int(math.Ceil(tq*float64(len(s)))) - 1
		if len(s)-1-idx >= 10 {
			q, v = tq, s[idx]
		}
	}
	m[base+".tail"] = v
	m[base+".tail_q"] = q
}
