// Command hostbench is the repository's benchmark. It runs one
// workload against the public entry points of internal/sim, care/cache,
// internal/server and internal/worker, checks every output, and prints
// one JSON object as its last line of standard output:
//
//	hostbench -workload spec-c4 -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the object holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics, from a run that first repeats the
// untraced measurement and then measures again with spans, a CPU
// profile and a mutex profile. See README.md for what each workload and
// metric is for.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"care/hostbench/calib"
)

// workload is one benchmark row.
type workload interface {
	// prepare generates the inputs, and the reference outputs the checks
	// compare against, before anything is timed.
	prepare() error
	// inputBytes is the size of the pre-generated inputs the workload
	// holds for the whole run; max_rss_mb leaves it out.
	inputBytes() int64
	// goroutines is how many goroutines a round keeps busy; the
	// calibration kernel runs on as many.
	goroutines() int
	// round runs one round: untimed staging, the timed set-up, the
	// timed measured region, then the output checks.
	round(id string, tr *tracer) roundOut
	// endToEnd adds care_speedup and hit_ratio.
	endToEnd(m map[string]float64)
	// perLayer adds the workload's layer metrics from a traced phase.
	perLayer(tr *tracer, m map[string]float64)
}

// roundOut is what one round measured and checked.
type roundOut struct {
	setup, measure time.Duration
	// work is the measured region's output: simulated instructions,
	// cache operations, or jobs.
	work float64
	// ops were attempted; failed of them did not pass their check.
	ops, failed int64
	// err is the round's first failure, a check or a call error.
	err error
}

// roundStat is one timed round with its calibration applied.
type roundStat struct {
	roundOut
	// unit is the median calibration-kernel unit time around the round.
	unit float64
	// setupS and measureS are calibrated seconds.
	setupS, measureS float64
}

func (s roundStat) throughput() float64     { return s.work / s.measureS }
func (s roundStat) wallThroughput() float64 { return s.work / s.measure.Seconds() }

const (
	// calibUnits kernel units run on each goroutine before and after
	// every round.
	calibUnits = 4
	// minRounds is the fewest timed rounds a phase measures, however
	// long they take.
	minRounds = 5
)

// runner times rounds and keeps the run's tallies.
type runner struct {
	kernel    *calib.Kernel
	rounds    int
	units     []float64
	attempted int64
	failed    int64
	err       error
}

// phase runs rounds of w for the given time (at least minRounds) and
// returns their calibrated timings. The very first round of a process
// is a warm-up: checked, but not timed. A failing round ends the phase.
func (r *runner) phase(w workload, tr *tracer, seconds time.Duration) []roundStat {
	g := w.goroutines()
	var stats []roundStat
	start := time.Now()
	for {
		runtime.GC()
		before := r.kernel.Measure(g, calibUnits)
		out := w.round(fmt.Sprintf("round-%d", r.rounds), tr)
		after := r.kernel.Measure(g, calibUnits)
		r.rounds++
		r.attempted += out.ops
		r.failed += out.failed
		if out.err != nil {
			r.err = errors.Join(r.err, out.err)
			return stats
		}
		if r.rounds == 1 {
			start = time.Now()
			continue
		}
		var units []float64
		for _, d := range append(before, after...) {
			units = append(units, d.Seconds())
		}
		r.units = append(r.units, units...)
		unit := median(units)
		factor := calib.Nominal.Seconds() / unit
		stats = append(stats, roundStat{roundOut: out, unit: unit,
			setupS: out.setup.Seconds() * factor, measureS: out.measure.Seconds() * factor})
		if len(stats) >= minRounds && time.Since(start) >= seconds {
			return stats
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: spec-c4, cache-kv or fleet")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per phase")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	outDir := flag.String("out", ".bench_build/hostbench", "directory for spans and scratch data")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*outDir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	w, err := newWorkload(*name, *seed, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 2
	}

	r := &runner{kernel: calib.New()}
	measure := time.Duration(*seconds * float64(time.Second))
	if *traceFlag != 0 {
		// The traced run measures twice, untraced then traced, in the
		// time an untraced run takes.
		measure /= 2
	}
	m := map[string]float64{}
	defs := endToEnd
	if *traceFlag != 0 {
		defs = perLayer
	}
	if err := w.prepare(); err != nil {
		r.attempted, r.failed, r.err = 1, 1, fmt.Errorf("prepare: %w", err)
	} else {
		untraced := r.phase(w, nil, measure)
		throughput := median(collect(untraced, roundStat.throughput))
		fmt.Fprintf(os.Stderr, "hostbench: %s seed %d: %d timed rounds; throughput %.6g/s calibrated, %.6g/s wall; kernel unit %.4gms\n",
			*name, *seed, len(untraced), throughput, median(collect(untraced, roundStat.wallThroughput)), median(r.units)*1e3)
		switch {
		case *traceFlag == 0:
			m["throughput"] = throughput
			m["setup_s"] = median(collect(untraced, func(s roundStat) float64 { return s.setupS }))
			w.endToEnd(m)
		case r.err == nil:
			tr := newTracer()
			traced, err := tracedPhase(r, w, tr, measure, m)
			r.err = errors.Join(r.err, err)
			w.perLayer(tr, m)
			m["host.calib_s.p50"] = median(r.units)
			m["host.calib_iqr"] = iqrShare(collect(untraced, func(s roundStat) float64 { return s.unit }))
			m["host.wall_throughput"] = median(collect(untraced, roundStat.wallThroughput))
			if throughput > 0 {
				m["trace.overhead"] = 1 - median(collect(traced, roundStat.throughput))/throughput
			}
			path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
			r.err = errors.Join(r.err, tr.write(path))
		}
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.err = errors.Join(r.err, errors.New("no operation ran"))
	}
	if r.err != nil && r.failed == 0 {
		r.failed = 1
	}
	m["success_ratio"] = float64(r.attempted-r.failed) / float64(r.attempted)
	// The calibration buffer and the pre-generated inputs are the
	// benchmark's own memory, not the program's.
	peakRSS, ownMB := maxRSSMB(), float64(r.kernel.Bytes()+w.inputBytes())/(1<<20)
	m["max_rss_mb"] = peakRSS - ownMB
	fmt.Fprintf(os.Stderr, "hostbench: peak RSS %.2f MB, less %.2f MB of calibration buffer and inputs\n", peakRSS, ownMB)

	res := result{Correct: r.err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			r.err = errors.Join(r.err, fmt.Errorf("metric %s is %v", d.Name, v))
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if r.err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: FAILED:", r.err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedPhase repeats the measurement with spans, a CPU profile and a
// mutex profile, and adds the profile-derived shares to m.
func tracedPhase(r *runner, w workload, tr *tracer, seconds time.Duration, m map[string]float64) ([]roundStat, error) {
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	runtime.SetMutexProfileFraction(1)
	traced := r.phase(w, tr, seconds)
	pprof.StopCPUProfile()
	runtime.SetMutexProfileFraction(0)
	var mu bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&mu, 0); err != nil {
		return traced, fmt.Errorf("mutex profile: %w", err)
	}

	samples, err := decodeProfile(cpu.Bytes())
	if err != nil {
		return traced, err
	}
	selfShares(samples, []string{"care/hostbench/calib"}, m)

	locks, err := decodeProfile(mu.Bytes())
	if err != nil {
		return traced, err
	}
	var waited int64
	for _, s := range locks {
		if onStack(s, []string{"care/cache"}) {
			waited += s.value
		}
	}
	var busy float64
	for _, s := range traced {
		busy += s.measure.Seconds() * float64(w.goroutines())
	}
	if busy > 0 {
		m["cache.lock_wait_share"] = float64(waited) / 1e9 / busy
	}
	return traced, nil
}

func collect(stats []roundStat, f func(roundStat) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}

// maxRSSMB is this process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func newWorkload(name string, seed uint64, scratch string) (workload, error) {
	switch name {
	case "spec-c4":
		return newSpecC4(), nil
	case "cache-kv":
		return newCacheKV(seed), nil
	case "fleet":
		return newFleet(seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want spec-c4, cache-kv or fleet)", name)
}
