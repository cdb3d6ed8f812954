package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"care/careapi"
	"care/internal/sim"
	"care/internal/synth"
)

func specResults() []sim.Result {
	return []sim.Result{
		{Policy: "lru", Cycles: 1000, CoreIPC: []float64{0.4, 0.4}, CoreInstructions: []uint64{500, 510}},
		{Policy: "care", Cycles: 900, CoreIPC: []float64{0.5, 0.45}, CoreInstructions: []uint64{505, 500}},
	}
}

func TestSpecCheckPassesOnIdenticalRound(t *testing.T) {
	if err := checkSpecRound(specResults(), specResults(), 500); err != nil {
		t.Fatal(err)
	}
}

func TestSpecCheckFailsOnNonDeterministicRound(t *testing.T) {
	got := specResults()
	got[1].Cycles++
	err := checkSpecRound(specResults(), got, 500)
	if err == nil || !strings.Contains(err.Error(), "non-deterministic") {
		t.Fatalf("err = %v, want a non-determinism failure", err)
	}
}

func TestSpecCheckFailsOnShortCoreAndSlowCARE(t *testing.T) {
	bad := specResults()
	bad[0].CoreInstructions[1] = 499
	bad[1].CoreIPC = []float64{0.3, 0.3}
	err := checkSpecRound(bad, bad, 500)
	if err == nil || !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "not above") {
		t.Fatalf("err = %v, want budget and CARE-IPC failures", err)
	}
}

// fleetCampaign returns reference bytes and the jobs an API listing
// of a correct campaign would hold (results indented, as served).
func fleetCampaign(t *testing.T) (map[string][]byte, []careapi.Job, map[string]int) {
	t.Helper()
	expected := map[string][]byte{}
	var jobs []careapi.Job
	done := map[string]int{}
	for i, r := range specResults() {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		spec := careapi.JobSpec{Kind: "spec", Workload: "401.bzip2", Policy: r.Policy, Cores: 1}
		expected[specKey(spec)] = b
		indented, err := json.MarshalIndent(json.RawMessage(b), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		id := "j00000" + string(rune('1'+i))
		jobs = append(jobs, careapi.Job{ID: id, Spec: spec, State: careapi.StateDone, Result: indented})
		done[id] = 1
	}
	return expected, jobs, done
}

func TestFleetCheckPassesOnCorrectCampaign(t *testing.T) {
	expected, jobs, done := fleetCampaign(t)
	if bad := checkFleet(expected, jobs, done, len(jobs)); len(bad) > 0 {
		t.Fatal(errors.Join(bad...))
	}
}

func TestFleetCheckFailsOnFlippedResultByte(t *testing.T) {
	expected, jobs, done := fleetCampaign(t)
	r := jobs[1].Result
	i := strings.Index(string(r), "900")
	r[i] = '8' // Cycles 900 -> 800: still valid JSON, wrong bytes
	bad := checkFleet(expected, jobs, done, len(jobs))
	if len(bad) != 1 || !strings.Contains(bad[0].Error(), "differ") {
		t.Fatalf("failures = %v, want one result-bytes failure", bad)
	}
}

func TestFleetCheckFailsOnDuplicateDone(t *testing.T) {
	expected, jobs, done := fleetCampaign(t)
	done[jobs[0].ID] = 2
	bad := checkFleet(expected, jobs, done, len(jobs))
	if len(bad) != 1 || !strings.Contains(bad[0].Error(), "2 done events") {
		t.Fatalf("failures = %v, want one exactly-once failure", bad)
	}
}

// brokenIntegrity is a real cache whose integrity sweep reports a fault.
type brokenIntegrity struct{ kvCache }

func (brokenIntegrity) CheckIntegrity() error {
	return errors.New("planted: index points at an empty slot")
}

func smallKV(t *testing.T) (*cacheKV, kvCache) {
	t.Helper()
	c := newCacheKV(7)
	for k := uint64(0); k < 512; k++ {
		c.fill = append(c.fill, k)
	}
	kv, err := c.setup("care")
	if err != nil {
		t.Fatal(err)
	}
	return c, kv
}

// kvStream is a key-churn stream long enough to hold deletes.
func kvStream() []kvOp {
	return genOps(synth.ServiceTraces(kvCapacity, 7)[2], 5*kvDeleteEvery)
}

func TestCacheCheckPassesOnCleanReplay(t *testing.T) {
	c, kv := smallKV(t)
	var tally kvTally
	replay(kv, kvStream(), 2, &tally, true)
	if err := checkKV(kv, &tally, len(c.fill)); err != nil {
		t.Fatal(err)
	}
	if tally.hits == 0 || tally.deleted == 0 || len(tally.delNS) == 0 {
		t.Fatalf("replay exercised too little: %+v", tally)
	}
}

func TestCacheCheckFailsOnIntegrityError(t *testing.T) {
	c, kv := smallKV(t)
	var tally kvTally
	replay(kv, kvStream(), 2, &tally, false)
	err := checkKV(brokenIntegrity{kv}, &tally, len(c.fill))
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("err = %v, want an integrity failure", err)
	}
}

func TestCacheCheckFailsOnWrongValue(t *testing.T) {
	c, kv := smallKV(t)
	kv.PutCost(3, valueOf(3)+1, 100) // planted: key 3 holds a wrong value
	ops := []kvOp{{key: 3, kind: opGet}}
	var tally kvTally
	replay(kv, ops, 0, &tally, false)
	err := checkKV(kv, &tally, len(c.fill)+1)
	if err == nil || !strings.Contains(err.Error(), "wrong value") {
		t.Fatalf("err = %v, want a wrong-value failure", err)
	}
}

func TestCacheCheckFailsOnBrokenConservation(t *testing.T) {
	c, kv := smallKV(t)
	var tally kvTally
	replay(kv, kvStream(), 2, &tally, false)
	tally.gets++ // planted: one Get the cache never counted
	err := checkKV(kv, &tally, len(c.fill))
	if err == nil || !strings.Contains(err.Error(), "stats") {
		t.Fatalf("err = %v, want a conservation failure", err)
	}
}

// Deletes appear on key-churn only, each right after a read of its key.
func TestGenOpsDeletesFollowChurnReads(t *testing.T) {
	for _, tr := range synth.ServiceTraces(kvCapacity, 7) {
		ops := genOps(tr, 3*kvDeleteEvery)
		var reads, deletes int
		for i, o := range ops {
			if o.kind == opGet {
				reads++
				continue
			}
			deletes++
			if i == 0 || ops[i-1].kind != opGet || ops[i-1].key != o.key {
				t.Fatalf("%s: delete %d does not follow a read of key %d", tr.Name(), i, o.key)
			}
		}
		want := 0
		if tr.Name() == "key-churn" {
			want = 3
		}
		if reads != 3*kvDeleteEvery || deletes != want {
			t.Errorf("%s: %d reads, %d deletes; want %d, %d", tr.Name(), reads, deletes, 3*kvDeleteEvery, want)
		}
	}
}
