package core_test

import (
	"strings"
	"testing"

	"govolve/internal/core"
	"govolve/internal/obs"
)

// armGates attaches a metrics registry and a gate engine to a fixture.
func armGates(f *fixture, specs []obs.GateSpec, policy core.GatePolicy) (*obs.Registry, *obs.GateEngine) {
	reg := obs.NewRegistry()
	f.vm.AttachObs(nil, reg)
	ge := obs.NewGateEngine(specs, 0, reg)
	f.engine.AttachGates(ge, policy)
	return reg, ge
}

// failingPauseGate is the deterministic FAIL injection: a real DSU pause is
// always > 0 seconds, so a zero pause budget trips on every applied update,
// on any host, every run.
func failingPauseGate() []obs.GateSpec {
	return []obs.GateSpec{
		{Name: "pause-budget", Metric: obs.MPauseTotal, Agg: obs.AggSum, Cmp: obs.CmpLE, Threshold: 0, WallClock: true},
	}
}

func TestUpdateVerdictAllGreen(t *testing.T) {
	f := newFixture(t, 1<<16)
	_, ge := armGates(f, nil, core.GateObserve)
	v1 := f.load(bodyV1)
	v2 := f.prog(strings.Replace(bodyV1, "const 1\n    return", "const 2\n    return", 1))
	f.spawn("App")
	f.vm.Step(1)

	res := f.mustApply("1", v1, v2, "")
	v := res.Verdict
	if v == nil {
		t.Fatal("applied update carried no verdict")
	}
	if !v.Pass || v.Violated != "" {
		t.Fatalf("all-green update judged %s", v)
	}
	if v.Outcome != "applied" || v.Tag != "1" {
		t.Fatalf("verdict identity %+v", v)
	}
	if len(v.Results) != len(obs.DefaultGateSpecs()) {
		t.Fatalf("verdict evaluated %d gates, want every default spec", len(v.Results))
	}
	if ge.Last() != v || ge.Total() != 1 {
		t.Fatal("verdict not recorded in the engine ring")
	}
	if f.engine.Halted() != nil {
		t.Fatal("observe policy halted the engine")
	}
}

func TestInjectedRegressionFailsDeterministically(t *testing.T) {
	// Two independent fixtures; both must fail the same gate the same way.
	for run := 0; run < 2; run++ {
		f := newFixture(t, 1<<16)
		reg, _ := armGates(f, failingPauseGate(), core.GateObserve)
		v1 := f.load(bodyV1)
		v2 := f.prog(strings.Replace(bodyV1, "const 1\n    return", "const 2\n    return", 1))
		f.spawn("App")
		f.vm.Step(1)

		res := f.mustApply("1", v1, v2, "")
		v := res.Verdict
		if v == nil || v.Pass {
			t.Fatalf("run %d: zero pause budget passed: %s", run, v)
		}
		if v.Violated != "pause-budget" {
			t.Fatalf("run %d: violated gate %q, want pause-budget", run, v.Violated)
		}
		if !strings.Contains(v.String(), "FAIL gate=pause-budget") {
			t.Fatalf("run %d: verdict line %q does not name the gate", run, v.String())
		}
		// The judgment is on the scrape plane too.
		if reg.Counter(obs.MGateFail).Value() != 1 || reg.Gauge(obs.MGateLastPass).Value() != 0 {
			t.Fatalf("run %d: gate series not published", run)
		}
	}
}

func TestGateHaltPolicyBlocksUpdatesUntilCleared(t *testing.T) {
	f := newFixture(t, 1<<16)
	armGates(f, failingPauseGate(), core.GateHalt)
	v1 := f.load(bodyV1)
	v2 := f.prog(strings.Replace(bodyV1, "const 1\n    return", "const 2\n    return", 1))
	f.spawn("App")
	f.vm.Step(1)

	res := f.mustApply("1", v1, v2, "")
	hv := f.engine.Halted()
	if hv == nil || hv != res.Verdict {
		t.Fatalf("halt verdict %v, want the failing verdict", hv)
	}

	// The chain is stopped: the next request is refused, naming the policy.
	v3 := f.prog(strings.Replace(bodyV1, "const 1\n    return", "const 3\n    return", 1))
	if _, err := f.update("2", v2, v3, "", core.Options{}); err == nil ||
		!strings.Contains(err.Error(), "halted by gate policy") {
		t.Fatalf("post-halt update err = %v, want gate-policy refusal", err)
	}

	// ClearHalt is the operator override: updates flow again.
	f.engine.ClearHalt()
	if f.engine.Halted() != nil {
		t.Fatal("ClearHalt left the engine halted")
	}
	res2, err := f.update("2", v2, v3, "", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != core.Applied {
		t.Fatalf("post-clear update %v (%v)", res2.Outcome, res2.Err)
	}
	if got := strings.TrimSpace(f.finish()); got != "3" {
		t.Fatalf("answer = %q, want 3", got)
	}
}
