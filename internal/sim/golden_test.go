package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"care/internal/graph"
	"care/internal/mem"
	"care/internal/policy"
	"care/internal/synth"
	"care/internal/trace"
)

// updateGolden rewrites testdata/golden_digests.txt from the current
// tree: go test ./internal/sim -run TestGoldenDigests -update-golden.
// Output bytes are the contract, so a regeneration is a deliberate,
// explained change of its own.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt")

const goldenPath = "testdata/golden_digests.txt"

// Pinned budgets of the digest matrix: small enough that the 48 runs
// take a few seconds, large enough that all 48 digests differ.
const (
	goldenScale   = 16
	goldenWarmup  = 2_000
	goldenMeasure = 6_000
	goldenGAPRecs = 20_000
)

type goldenCase struct {
	policy   policy.Policy
	cores    int
	workload string
	prefetch bool
}

func (c goldenCase) name() string {
	pf := "off"
	if c.prefetch {
		pf = "on"
	}
	return fmt.Sprintf("%s/c%d/%s/pf-%s", c.policy, c.cores, c.workload, pf)
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, p := range []policy.Policy{"lru", "ship++", "care", "hawkeye"} {
		for _, cores := range []int{1, 4, 8} {
			for _, wl := range []string{"429.mcf", "bfs-or"} {
				for _, pf := range []bool{false, true} {
					out = append(out, goldenCase{p, cores, wl, pf})
				}
			}
		}
	}
	return out
}

var (
	bfsOnce sync.Once
	bfsBase *trace.Slice
	bfsErr  error
)

// goldenTraces builds one reader per core the way the harness does:
// seeded synthetic generators for SPEC profiles, desynchronised and
// address-shifted loops over one recorded kernel trace for GAP.
func goldenTraces(workload string, cores int) ([]trace.Reader, error) {
	out := make([]trace.Reader, cores)
	if workload == "bfs-or" {
		bfsOnce.Do(func() {
			g, err := graph.LoadDataset("or")
			if err != nil {
				bfsErr = err
				return
			}
			bfsBase, bfsErr = graph.Trace("bfs", g, goldenGAPRecs, 1)
		})
		if bfsErr != nil {
			return nil, bfsErr
		}
		for i := range out {
			start := i * bfsBase.Len() / cores
			out[i] = trace.NewOffset(
				trace.NewLooping(trace.NewSliceAt(bfsBase.Records, start)),
				mem.Addr(uint64(i)<<36),
			)
		}
		return out, nil
	}
	p, err := synth.Lookup(workload)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = synth.NewScaledGenerator(p, uint64(i+1), goldenScale)
	}
	return out, nil
}

// goldenDigest runs one matrix cell and hashes its Result's JSON.
func goldenDigest(c goldenCase) (string, error) {
	traces, err := goldenTraces(c.workload, c.cores)
	if err != nil {
		return "", err
	}
	cfg := ScaledConfig(c.cores, goldenScale)
	cfg.LLCPolicy = c.policy
	cfg.Prefetch = c.prefetch
	r, err := Run(cfg, traces, goldenWarmup, goldenMeasure)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestGoldenDigests pins the simulator's output bytes: the SHA-256 of
// json.Marshal(Result) for {lru, ship++, care, hawkeye} × {c1, c4, c8}
// × {429.mcf, bfs-or} × {prefetch off, on}. A refactor that claims to
// preserve behaviour must leave every digest unchanged.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse multiply-add, which moves the low
		// bits of the float fields the digests cover.
		t.Skipf("golden digests are recorded on amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
	cases := goldenCases()
	got := make([]string, len(cases))
	errs := make([]error, len(cases))
	// Cells are independent; two workers keep the matrix inside its
	// time budget on small hosts without oversubscribing them.
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(2, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				got[i], errs[i] = goldenDigest(cases[i])
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()

	var b strings.Builder
	for i, c := range cases {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name(), errs[i])
		}
		fmt.Fprintf(&b, "%s %s\n", got[i], c.name())
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		digest, name, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[name] = digest
	}
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, the matrix has %d cells", goldenPath, len(want), len(cases))
	}
	for i, c := range cases {
		if w, ok := want[c.name()]; !ok {
			t.Errorf("%s: no recorded digest", c.name())
		} else if w != got[i] {
			t.Errorf("%s: digest %s, recorded %s", c.name(), got[i], w)
		}
	}
}
