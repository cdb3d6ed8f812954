package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"care/internal/synth"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"care/internal/core/pmc.(*Logic).Tick":                            "care/internal/core/pmc",
		"care/cache.(*ShardedCache[go.shape.uint64,go.shape.uint64]).Get": "care/cache",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/syscall.Syscall6":            "internal/runtime/syscall",
		"net/http.(*conn).serve":                       "net/http",
		"care/hostbench/calib.(*Kernel).Measure.func1": "care/hostbench/calib",
		"encoding/json.(*decodeState).object":          "encoding/json",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if g := groupOf("internal/runtime/syscall"); g != "syscall.self_share" {
		t.Errorf("internal/runtime/syscall groups as %q", g)
	}
	if g := groupOf("internal/runtime/maps"); g != "runtime.self_share" {
		t.Errorf("internal/runtime/maps groups as %q", g)
	}
}

// A CPU profile of a loop spent in internal/synth decodes into samples
// whose stacks show the synth frames, and none of its self time lands
// in the PMC group.
func TestSelfSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	p, err := synth.Lookup("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	g := synth.NewGenerator(p, 1)
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 10_000; i++ {
			g.Next()
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inSynth int
	for _, s := range samples {
		if onStack(s, []string{"care/internal/synth"}) {
			inSynth++
		}
	}
	// Profiler, GC and race-detector goroutines take samples too, so
	// only ask that the loop's own frames are found.
	if inSynth < 5 {
		t.Fatalf("%d samples, %d with synth frames; want at least 5 in synth", len(samples), inSynth)
	}
	m := map[string]float64{}
	selfShares(samples, nil, m)
	if m["pmc.self_share"] != 0 {
		t.Errorf("pmc.self_share = %v on a synth-only loop", m["pmc.self_share"])
	}
}
