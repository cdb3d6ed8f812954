package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"care/careapi"
	"care/internal/harness"
	"care/internal/server"
	"care/internal/worker"
)

const (
	// fleetHeartbeat is below a job's length, so every job renews its
	// lease and uploads checkpoints while it runs.
	fleetHeartbeat = 10 * time.Millisecond
	// fleetPoll is the worker's idle claim period; it only matters
	// after a round's last job.
	fleetPoll    = 50 * time.Millisecond
	fleetTimeout = 90 * time.Second
	// fleetSetups set-ups are timed per round.
	fleetSetups = 5
	// fleetDirectRuns direct harness runs of each spec give its
	// reference bytes and its median direct time.
	fleetDirectRuns = 3
)

var (
	fleetWorkloads = []string{"401.bzip2", "456.hmmer", "625.x264_s", "657.xz_s"}
	fleetPolicies  = []string{"lru", "care"}
)

// fleet runs campaign sweeps through an in-process care-server with no
// local pool and one in-process care-worker (one slot) over loopback
// HTTP. Journal appends, claim matching, heartbeats, checkpoint upload
// and HTTP are a large share of each job.
type fleet struct {
	seed    uint64
	base    string
	request careapi.SubmitRequest
	// expected holds each spec's result bytes from a direct harness
	// run, and direct how long that run took.
	expected map[string][]byte
	direct   map[string]float64
	// journal is the template data directory's journal: one finished
	// campaign, replayed by every round's set-up.
	journal []byte

	mu sync.Mutex // guards the traced tallies below (proxy goroutines)
	// calls holds proxied call latencies in ms, by call kind.
	calls map[string][]float64
	// roundCalls counts the current round's proxied calls by kind, and
	// perRound holds every traced round's counts, by metric name.
	roundCalls                map[string]int
	perRound                  map[string][]float64
	queueWait, runS, overhead []float64
	submitMS, replayS         []float64
}

func newFleet(seed uint64, scratch string) *fleet {
	return &fleet{seed: seed, base: scratch, calls: map[string][]float64{}, perRound: map[string][]float64{}}
}

func (f *fleet) goroutines() int { return 1 }

func specKey(s careapi.JobSpec) string { return s.Workload + "/" + s.Policy }

func (f *fleet) prepare() error {
	rng := rand.New(rand.NewSource(int64(f.seed)))
	workloads := append([]string(nil), fleetWorkloads...)
	policies := append([]string(nil), fleetPolicies...)
	rng.Shuffle(len(workloads), func(i, j int) { workloads[i], workloads[j] = workloads[j], workloads[i] })
	rng.Shuffle(len(policies), func(i, j int) { policies[i], policies[j] = policies[j], policies[i] })
	f.request = careapi.SubmitRequest{
		JobSpec:   careapi.JobSpec{Kind: "spec", Cores: 1, Warmup: 8_000, Measure: 40_000},
		Workloads: workloads,
		Policies:  policies,
	}

	f.expected, f.direct = map[string][]byte{}, map[string]float64{}
	for _, spec := range f.request.Specs() {
		var times []float64
		for i := 0; i < fleetDirectRuns; i++ {
			b, d, err := f.directRun(spec)
			if err != nil {
				return fmt.Errorf("direct run %s: %w", specKey(spec), err)
			}
			if prev, ok := f.expected[specKey(spec)]; ok && !bytes.Equal(prev, b) {
				return fmt.Errorf("direct run %s: result bytes differ between runs", specKey(spec))
			}
			f.expected[specKey(spec)] = b
			times = append(times, d.Seconds())
		}
		f.direct[specKey(spec)] = median(times)
	}

	// The template round starts from an empty journal and leaves the
	// finished campaign every timed round replays.
	journal, out := f.runRound("template", nil)
	if out.err != nil {
		return out.err
	}
	f.journal = journal
	return nil
}

// directRun runs spec through the harness the way the worker does,
// with the same checkpoint schedule, and returns its result bytes.
func (f *fleet) directRun(spec careapi.JobSpec) ([]byte, time.Duration, error) {
	dir, err := os.MkdirTemp(f.base, "direct-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	opts := &harness.Options{Measure: spec.Measure, Warmup: spec.Warmup, MaxAttempts: 1,
		CheckpointDir: dir, CheckpointEvery: spec.CheckpointEvery, ResumeExisting: true,
		Report: harness.NewReport()}
	t0 := time.Now()
	res, err := opts.Supervise(context.Background(), server.RunSpecOf(&spec))
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	b, err := server.MarshalResult(res)
	return b, d, err
}

// inputBytes is 0: the sweep request and reference results are a few
// kilobytes.
func (f *fleet) inputBytes() int64 { return 0 }

func (f *fleet) round(id string, tr *tracer) roundOut {
	_, out := f.runRound(id, tr)
	return out
}

// fleetStack is one set-up's server and worker, plus the timing proxy
// between them in traced rounds.
type fleetStack struct {
	srv     *server.Server
	wk      *worker.Worker
	px      *timingProxy
	journal string
	// setup is the timed set-up, replay the server.New part of it.
	setup, replay time.Duration
	stopped       bool
}

// setUp seeds dir with the template journal, then times the set-up:
// the server replays the journal and starts listening, and the worker
// is built. The timing proxy (traced rounds only) starts between the
// two, outside the timed set-up.
func (f *fleet) setUp(dir string, tr *tracer, id string) (*fleetStack, error) {
	srvDir := filepath.Join(dir, "server")
	if err := os.MkdirAll(srvDir, 0o755); err != nil {
		return nil, err
	}
	st := &fleetStack{journal: filepath.Join(srvDir, "journal")}
	if f.journal != nil {
		if err := os.WriteFile(st.journal, f.journal, 0o644); err != nil {
			return nil, err
		}
	}
	tA := time.Now()
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", DataDir: srvDir, NoLocalWorkers: true})
	if err != nil {
		return nil, err
	}
	tB := time.Now()
	if err := srv.Start(); err != nil {
		return nil, err
	}
	tC := time.Now()
	st.srv = srv
	workerURL := st.url()
	if tr != nil {
		if st.px, err = startProxy(st.url(), f, tr, id); err != nil {
			st.stop()
			return nil, err
		}
		workerURL = st.px.url
	}
	tD := time.Now()
	st.wk, err = worker.New(worker.Config{Server: workerURL, Name: "hostbench-worker",
		DataDir: filepath.Join(dir, "worker"), LeaseTTL: 10 * time.Second,
		Heartbeat: fleetHeartbeat, Poll: fleetPoll, Slots: 1, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		st.stop()
		return nil, err
	}
	tE := time.Now()
	st.setup, st.replay = tC.Sub(tA)+tE.Sub(tD), tB.Sub(tA)
	return st, nil
}

func (st *fleetStack) url() string { return "http://" + st.srv.Addr() }

// stop shuts the proxy and the server down; later calls do nothing.
func (st *fleetStack) stop() error {
	if st.stopped {
		return nil
	}
	st.stopped = true
	if st.px != nil {
		st.px.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return st.srv.Shutdown(ctx)
}

// runRound runs one round in a fresh data directory seeded with the
// template journal, and returns the journal the round left behind.
// A single set-up takes well under a millisecond, so the round times
// fleetSetups of them and reports their median as its set-up time; the
// last one serves the round's campaign.
func (f *fleet) runRound(id string, tr *tracer) ([]byte, roundOut) {
	n := len(f.request.Specs())
	out := roundOut{ops: int64(n)}
	fail := func(err error) ([]byte, roundOut) {
		out.failed, out.err = out.ops, fmt.Errorf("fleet %s: %w", id, err)
		return nil, out
	}
	dir := filepath.Join(f.base, id)
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), fleetTimeout)
	defer cancel()

	var setups, replays []float64
	var st *fleetStack
	for k := 0; k < fleetSetups; k++ {
		last := k == fleetSetups-1
		var err error
		if last {
			st, err = f.setUp(filepath.Join(dir, "live"), tr, id)
		} else {
			st, err = f.setUp(filepath.Join(dir, fmt.Sprintf("setup-%d", k)), nil, id)
		}
		if err != nil {
			return fail(err)
		}
		setups = append(setups, st.setup.Seconds())
		replays = append(replays, st.replay.Seconds())
		if !last {
			if err := st.stop(); err != nil {
				return fail(err)
			}
		}
	}
	defer st.stop()
	out.setup = time.Duration(median(setups) * float64(time.Second))
	base := st.url()

	campaign := fmt.Sprintf("hostbench-%d-%s", f.seed, id)
	wit, err := openWitness(ctx, base, campaign, n)
	if err != nil {
		return fail(err)
	}
	defer wit.close()

	// Measured region: submit the sweep, start the worker, wait for the
	// witness to see every job done.
	req := f.request
	req.Campaign = campaign
	m0 := time.Now()
	jobs, err := submit(ctx, base, req)
	m1 := time.Now()
	if err != nil {
		return fail(err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		st.wk.Run(wctx)
	}()
	select {
	case <-wit.allDone:
	case <-ctx.Done():
	}
	m2 := time.Now()
	out.measure = m2.Sub(m0)
	out.work = float64(n)
	wcancel()
	<-runDone
	if err := wit.failure(); err != nil {
		return fail(err)
	}
	if ctx.Err() != nil {
		return fail(fmt.Errorf("campaign did not finish within %s", fleetTimeout))
	}

	// Untimed: read the results, stop everything, check.
	var list careapi.ListResponse
	if err := getJSON(ctx, base+"/api/v1/jobs?campaign="+url.QueryEscape(campaign), &list); err != nil {
		return fail(err)
	}
	if err := st.stop(); err != nil {
		return fail(err)
	}
	wit.wait()
	journal, err := os.ReadFile(st.journal)
	if err != nil {
		return fail(err)
	}
	done := wit.doneCounts()
	if bad := checkFleet(f.expected, list.Jobs, done, n); len(bad) > 0 {
		out.failed, out.err = int64(len(bad)), fmt.Errorf("fleet %s: %w", id, errors.Join(bad...))
		return nil, out
	}

	if tr != nil {
		f.recordTraced(tr, id, jobs, wit, journal, m1.Sub(m0), replays)
	}
	return journal, out
}

// checkFleet checks a finished campaign: n jobs, each done exactly
// once by the witness's count, each result byte-equal to the direct
// harness run of its spec. It returns one error per failing job.
func checkFleet(expected map[string][]byte, jobs []careapi.Job, done map[string]int, n int) []error {
	var bad []error
	if len(jobs) != n {
		bad = append(bad, fmt.Errorf("campaign lists %d jobs, want %d", len(jobs), n))
	}
	for _, jb := range jobs {
		want, ok := expected[specKey(jb.Spec)]
		// The API indents its responses; compacting restores the bytes
		// the worker stored.
		var got bytes.Buffer
		cerr := json.Compact(&got, jb.Result)
		switch {
		case jb.State != careapi.StateDone:
			bad = append(bad, fmt.Errorf("job %s is %s: %s", jb.ID, jb.State, jb.Error))
		case done[jb.ID] != 1:
			bad = append(bad, fmt.Errorf("job %s: witness saw %d done events, want 1", jb.ID, done[jb.ID]))
		case !ok:
			bad = append(bad, fmt.Errorf("job %s: no reference for %s", jb.ID, specKey(jb.Spec)))
		case cerr != nil || !bytes.Equal(got.Bytes(), want):
			bad = append(bad, fmt.Errorf("job %s (%s): result bytes differ from the direct harness run", jb.ID, specKey(jb.Spec)))
		}
	}
	return bad
}

// recordTraced folds one traced round's witness timings, counts and
// spans into the fleet's tallies.
func (f *fleet) recordTraced(tr *tracer, id string, jobs []careapi.Job, wit *witness, journal []byte, submit time.Duration, replays []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.submitMS = append(f.submitMS, float64(submit)/1e6)
	f.replayS = append(f.replayS, replays...)
	records := bytes.Count(journal, []byte("\n")) - bytes.Count(f.journal, []byte("\n"))
	f.perRound["journal.records"] = append(f.perRound["journal.records"], float64(records))
	for _, jb := range jobs {
		sweep, claim, complete := wit.at(jb.ID, "sweep"), wit.at(jb.ID, "claim"), wit.at(jb.ID, "complete")
		if sweep.IsZero() || claim.IsZero() || complete.IsZero() {
			continue
		}
		f.queueWait = append(f.queueWait, claim.Sub(sweep).Seconds())
		run := complete.Sub(claim).Seconds()
		f.runS = append(f.runS, run)
		f.overhead = append(f.overhead, run-f.direct[specKey(jb.Spec)])
		tr.add(id+"/"+jb.ID, 0, "job.queue", sweep, claim)
		tr.add(id+"/"+jb.ID, 0, "job.run", claim, complete)
	}
	for _, kind := range []string{"claims", "claims_empty", "heartbeats", "artifact_puts"} {
		f.perRound["server."+kind] = append(f.perRound["server."+kind], float64(f.roundCalls[kind]))
	}
	f.roundCalls = nil
}

// endToEnd reports care_speedup and hit_ratio as 1: neither applies
// to this workload, whose profiles are cache-resident, and a constant
// cannot widen the bound those metrics share with the other rows.
func (f *fleet) endToEnd(m map[string]float64) {
	m["care_speedup"] = 1
	m["hit_ratio"] = 1
}

func (f *fleet) perLayer(tr *tracer, m map[string]float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m["server.submit_ms"] = median(f.submitMS)
	m["server.replay_s"] = median(f.replayS)
	for _, kind := range []string{"claim", "heartbeat", "complete", "artifact_put"} {
		putDist(m, "server."+kind+"_ms", f.calls[kind])
	}
	for name, xs := range f.perRound {
		m[name] = median(xs)
	}
	putDist(m, "fleet.queue_wait_s", f.queueWait)
	putDist(m, "fleet.run_s", f.runS)
	m["fleet.overhead_s.p50"] = median(f.overhead)
}

// submit posts one sweep and returns its jobs.
func submit(ctx context.Context, base string, req careapi.SubmitRequest) ([]careapi.Job, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	var sr careapi.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	return sr.Jobs, nil
}

func getJSON(ctx context.Context, u string, v any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", u, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// witness follows one campaign on GET /api/v1/jobs/events and records
// when each job transition arrived.
type witness struct {
	resp     *http.Response
	want     int
	allDone  chan struct{}
	finished chan struct{}

	mu     sync.Mutex
	seen   map[string]map[string]time.Time // job → op → first arrival
	done   map[string]int
	failed error
}

// openWitness subscribes and returns once the server confirms the
// stream is open, so no later transition can be missed.
func openWitness(ctx context.Context, base, campaign string, want int) (*witness, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/v1/jobs/events?campaign="+url.QueryEscape(campaign), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return nil, fmt.Errorf("event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("event stream: %s", resp.Status)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ":") {
		resp.Body.Close()
		return nil, fmt.Errorf("event stream: no open comment (%q, %v)", line, err)
	}
	w := &witness{resp: resp, want: want, allDone: make(chan struct{}), finished: make(chan struct{}),
		seen: map[string]map[string]time.Time{}, done: map[string]int{}}
	go w.read(br)
	return w, nil
}

func (w *witness) read(br *bufio.Reader) {
	defer close(w.finished)
	closed := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		data, ok := strings.CutPrefix(strings.TrimRight(line, "\r\n"), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev careapi.JobEvent
		if json.Unmarshal([]byte(data), &ev) != nil || ev.Job == "" {
			continue
		}
		w.mu.Lock()
		if w.seen[ev.Job] == nil {
			w.seen[ev.Job] = map[string]time.Time{}
		}
		if _, ok := w.seen[ev.Job][ev.Op]; !ok {
			w.seen[ev.Job][ev.Op] = at
		}
		switch ev.State {
		case careapi.StateDone:
			w.done[ev.Job]++
		case careapi.StateFailed, careapi.StateCancelled:
			if w.failed == nil {
				w.failed = fmt.Errorf("job %s %s: %s", ev.Job, ev.State, ev.Error)
			}
		}
		finished := len(w.done) >= w.want || w.failed != nil
		w.mu.Unlock()
		if finished && !closed {
			closed = true
			close(w.allDone)
		}
	}
}

func (w *witness) at(job, op string) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seen[job][op]
}

func (w *witness) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

func (w *witness) doneCounts() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int, len(w.done))
	for k, v := range w.done {
		out[k] = v
	}
	return out
}

// wait returns once the stream has ended (the server shut down).
func (w *witness) wait() { <-w.finished }

func (w *witness) close() {
	w.resp.Body.Close()
	<-w.finished
}

// timingProxy sits between the worker and the server in traced rounds
// and times every worker API call.
type timingProxy struct {
	url string
	srv *http.Server
	ln  net.Listener
}

func startProxy(target string, f *fleet, tr *tracer, round string) (*timingProxy, error) {
	tu, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(tu)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		kind, job := classifyCall(r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		rp.ServeHTTP(sw, r)
		t1 := time.Now()
		if kind == "" {
			return
		}
		if kind == "claim" && sw.status == http.StatusNoContent {
			kind = "claim_empty"
		}
		// Every round replays the same journal, so job ids repeat
		// across rounds; the round id keeps their traces apart.
		trace := round
		if job != "" {
			trace = round + "/" + job
		}
		tr.add(trace, 0, "http."+kind, t0, t1)
		f.recordCall(kind, float64(t1.Sub(t0))/1e6)
	})
	p := &timingProxy{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, ln: ln}
	go p.srv.Serve(ln)
	return p, nil
}

func (p *timingProxy) close() {
	p.srv.Close()
}

// recordCall tallies one proxied call.
func (f *fleet) recordCall(kind string, ms float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.roundCalls == nil {
		f.roundCalls = map[string]int{}
	}
	switch kind {
	case "claim":
		f.roundCalls["claims"]++
	case "claim_empty":
		f.roundCalls["claims_empty"]++
		return
	case "heartbeat":
		f.roundCalls["heartbeats"]++
	case "artifact_put":
		f.roundCalls["artifact_puts"]++
	}
	f.calls[kind] = append(f.calls[kind], ms)
}

// classifyCall names a worker API call and the job it concerns.
func classifyCall(r *http.Request) (kind, job string) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/worker/claim":
		return "claim", ""
	case r.Method == http.MethodPut && strings.HasSuffix(p, "/artifact"):
		return "artifact_put", strings.TrimSuffix(strings.TrimPrefix(p, "/api/v1/worker/jobs/"), "/artifact")
	case r.Method == http.MethodPost && (p == "/api/v1/worker/heartbeat" || p == "/api/v1/worker/complete"):
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
		var ref struct {
			Job string `json:"job"`
		}
		if err == nil {
			json.Unmarshal(body, &ref)
		}
		return strings.TrimPrefix(p, "/api/v1/worker/"), ref.Job
	}
	return "", ""
}

// statusWriter remembers the status code the proxy wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}
