package sim

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"care/internal/faultinject"
	"care/internal/policy"
	"care/internal/telemetry"
	"care/internal/trace"
)

// The TestParallelEngine* names date from when internal/sim had a
// second, parallel cycle engine and these tests compared it with the
// sequential loop. That engine is gone. What the tests pinned beyond
// the comparison still holds for the one loop: an attached collector
// never perturbs a run whatever the structural options, chaos runs are
// reproducible, checkpoint files carry no per-run fingerprint, an
// interrupt lands on the first watchdog stride, and a plain
// trace.Reader drives the system like the generator it wraps. The
// tests keep their names and check those properties directly.

// runEngine builds a system for cfg with fresh mcf traces, attaches a
// retain-only telemetry collector, and runs warmup+measure, returning
// the Result, the completed telemetry intervals, and the run error.
func runEngine(t *testing.T, cfg Config, warmup, measure uint64) (Result, []telemetry.Interval, error) {
	t.Helper()
	col := telemetry.NewCollector(telemetry.Options{Interval: 700, Capacity: 64})
	cfg.Telemetry = col
	res, err := Run(cfg, mcfTraces(cfg.Cores), warmup, measure)
	series := make([]telemetry.Interval, col.Count())
	copy(series, col.Series())
	return res, series, err
}

// TestParallelEngineMatchesSequentialFeatureMatrix covers the
// structural options the default configuration leaves off: TLBs,
// inclusive LLC back-invalidation, the invariant sweep and stream
// prefetchers. Under each, attaching a collector must leave the Result
// unchanged, and two runs must record the same interval series.
func TestParallelEngineMatchesSequentialFeatureMatrix(t *testing.T) {
	base := ScaledConfig(4, 16)
	base.LLCPolicy = policy.CARE
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"tlb", func(c *Config) { c.TLB = true }},
		{"inclusive", func(c *Config) { c.InclusiveLLC = true }},
		{"invariants", func(c *Config) { c.CheckInvariants = true; c.InvariantEvery = 512 }},
		{"stream-prefetch", func(c *Config) { c.L1Prefetcher = "stream"; c.L2Prefetcher = "stream" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			plain, err := Run(cfg, mcfTraces(cfg.Cores), 2000, 6000)
			if err != nil {
				t.Fatalf("plain run: %v", err)
			}
			res, series, err := runEngine(t, cfg, 2000, 6000)
			if err != nil {
				t.Fatalf("run with collector: %v", err)
			}
			if !reflect.DeepEqual(plain, res) {
				t.Fatalf("collector perturbed the result:\nwithout: %+v\nwith:    %+v", plain, res)
			}
			if len(series) == 0 {
				t.Fatal("collector recorded no intervals")
			}
			_, again, err := runEngine(t, cfg, 2000, 6000)
			if err != nil {
				t.Fatalf("second run with collector: %v", err)
			}
			if !reflect.DeepEqual(series, again) {
				t.Fatalf("telemetry differs between runs: %d vs %d intervals", len(series), len(again))
			}
		})
	}
}

// TestParallelEngineFaultChaos runs the injector's chaos classes
// (flipped and corrupt trace records, delayed DRAM responses,
// saturated MSHRs) and requires the outcome — Result, fault counters,
// and any failure — to be the same on a second run from scratch. Each
// wrapped trace draws from its own RNG, so flip positions must not
// depend on anything but the seed.
func TestParallelEngineFaultChaos(t *testing.T) {
	for _, spec := range []string{
		"seed=7,trace-flip=64",
		"seed=11,dram-delay=40,dram-delay-cycles=97",
		"seed=3,trace-flip=96,dram-delay=150",
		"seed=5,mshr-saturate=9000",
		"seed=9,trace-corrupt=2500",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			fcfg, err := faultinject.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			run := func() (Result, faultinject.Stats, string) {
				cfg := ScaledConfig(4, 16)
				cfg.LLCPolicy = policy.CARE
				cfg.Prefetch = true
				f := fcfg
				cfg.Faults = &f
				// Chaos that wedges the hierarchy must abort the same
				// way each time; keep the watchdog armed but bounded,
				// with room for trace-corrupt's 2500 records to be read.
				cfg.MaxCycles = 400_000
				s, err := New(cfg, mcfTraces(cfg.Cores))
				if err != nil {
					t.Fatal(err)
				}
				_, err = s.RunInstructions(1500)
				if err == nil {
					s.ResetStats()
					_, err = s.RunInstructions(20000)
				}
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				return s.Snapshot(), *s.injector.Stats(), msg
			}
			res, stats, msg := run()
			if stats == (faultinject.Stats{}) {
				t.Fatalf("%q injected no fault", spec)
			}
			res2, stats2, msg2 := run()
			if msg != msg2 {
				t.Fatalf("errors differ between runs:\nfirst:  %s\nsecond: %s", msg, msg2)
			}
			if stats != stats2 {
				t.Fatalf("fault counters differ between runs:\nfirst:  %+v\nsecond: %+v", stats, stats2)
			}
			if !reflect.DeepEqual(res, res2) {
				t.Fatalf("results differ between runs under %q:\nfirst:  %+v\nsecond: %+v", spec, res, res2)
			}
		})
	}
}

// TestParallelEngineCheckpointDiff runs the checkpointed schedule
// twice into separate files and requires the retained checkpoints to
// be byte-identical (no timestamp, map order or address may leak into
// them) and the Result to equal the same schedule run without writing
// files. Each run's checkpoints must then resume to that same Result.
func TestParallelEngineCheckpointDiff(t *testing.T) {
	for _, cores := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("c%d", cores), func(t *testing.T) {
			cfg := ScaledConfig(cores, 16)
			cfg.LLCPolicy = policy.CARE
			want, err := RunCheckpointed(cfg, mcfTraces(cores),
				ckptWarmup, ckptMeasure, CheckpointOptions{Every: ckptEvery})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			paths := []string{filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")}
			for _, path := range paths {
				r, err := RunCheckpointed(cfg, mcfTraces(cores),
					ckptWarmup, ckptMeasure, CheckpointOptions{Path: path, Every: ckptEvery})
				if err != nil {
					t.Fatalf("%s: %v", filepath.Base(path), err)
				}
				if !reflect.DeepEqual(r, want) {
					t.Fatalf("writing checkpoints changed the result:\ngot:  %+v\nwant: %+v", r, want)
				}
			}
			for _, name := range []string{paths[0], RotatedPath(paths[0])} {
				other := filepath.Join(dir, "b"+strings.TrimPrefix(filepath.Base(name), "a"))
				a, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(other)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("checkpoint %s differs between runs (%d vs %d bytes)",
						filepath.Base(name), len(a), len(b))
				}
			}
			for _, from := range []string{paths[0], RotatedPath(paths[1])} {
				got, err := Resume(cfg, mcfTraces(cores),
					ckptWarmup, ckptMeasure, CheckpointOptions{Every: ckptEvery}, from)
				if err != nil {
					t.Fatalf("resume %s: %v", filepath.Base(from), err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resume of %s diverged:\ngot:  %+v\nwant: %+v", filepath.Base(from), got, want)
				}
			}
		})
	}
}

// TestParallelEngineInterrupt verifies that an interrupt requested
// between runs surfaces as ErrInterrupted on the first watchdog-stride
// boundary the next run reaches, and at the same cycle every time.
func TestParallelEngineInterrupt(t *testing.T) {
	run := func() (start, stop uint64, err error) {
		s, err := New(ScaledConfig(2, 16), mcfTraces(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunInstructions(2000); err != nil {
			t.Fatal(err)
		}
		start = s.Cycle()
		s.Interrupt()
		_, err = s.RunInstructions(50_000)
		return start, s.Cycle(), err
	}
	start, stop, err := run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if stop%watchdogStride != 0 || stop <= start || stop-start > watchdogStride {
		t.Fatalf("interrupt observed at cycle %d; want the first multiple of %d after %d",
			stop, watchdogStride, start)
	}
	if _, again, _ := run(); again != stop {
		t.Fatalf("interrupt observed at different cycles: %d then %d", stop, again)
	}
}

// trickleReader yields records through the bare trace.Reader method
// set, hiding every other method of the source it wraps.
type trickleReader struct{ src trace.Reader }

func (r *trickleReader) Next() (trace.Record, error) { return r.src.Next() }

// TestParallelEngineUnboundedSourceFallback requires a system fed
// through bare trace.Readers to match one fed the generators directly:
// the cycle loop may rely on nothing beyond Next.
func TestParallelEngineUnboundedSourceFallback(t *testing.T) {
	run := func(wrap bool) Result {
		traces := mcfTraces(2)
		if wrap {
			for i, tr := range traces {
				traces[i] = &trickleReader{src: tr}
			}
		}
		s, err := New(ScaledConfig(2, 16), traces)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunInstructions(3000); err != nil {
			t.Fatal(err)
		}
		return s.Snapshot()
	}
	direct, wrapped := run(false), run(true)
	if !reflect.DeepEqual(direct, wrapped) {
		t.Fatalf("bare readers diverge from the generators:\ndirect:  %+v\nwrapped: %+v", direct, wrapped)
	}
}
