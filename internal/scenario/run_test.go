package scenario

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sprout/internal/metrics"
	"sprout/internal/trace"
)

// shortSpecs trims the testdata durations so the end-to-end sweep stays
// fast while still exercising loss, multi-flow, heterogeneous groups and
// the tunnel.
func shortSpecs(t *testing.T) []Spec {
	t.Helper()
	specs, err := LoadFile("testdata/never-ran.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		specs[i].Duration = Duration(20 * time.Second)
		specs[i].Skip = Duration(5 * time.Second)
	}
	return specs
}

// TestScenarioFileEndToEnd runs the shipped scenario file — combinations
// the hard-coded harness never offered (vegas under loss, multi-flow
// cubic-codel, sprout competing with ledbat, a tunneled app) — and sanity
// checks each result.
func TestScenarioFileEndToEnd(t *testing.T) {
	specs := shortSpecs(t)
	if len(specs) != 4 {
		t.Fatalf("testdata file has %d scenarios, want 4", len(specs))
	}
	results, stats, err := RunAll(context.Background(), specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != len(specs) {
		t.Errorf("completed %d of %d jobs", stats.Completed, len(specs))
	}

	vegas := results[0]
	if vegas.Spec.Loss != 0.05 || vegas.Spec.Link != "T-Mobile 3G (UMTS)" || vegas.Spec.Direction != "up" {
		t.Errorf("vegas spec not honoured: %+v", vegas.Spec)
	}
	if vegas.Metrics.ThroughputBps <= 0 {
		t.Error("vegas under loss delivered nothing")
	}

	multi := results[1]
	if len(multi.Flows) != 3 {
		t.Fatalf("multi-flow cubic-codel: %d flows, want 3", len(multi.Flows))
	}
	for _, f := range multi.Flows {
		if f.ThroughputBps <= 0 {
			t.Errorf("cubic-codel flow %d delivered nothing", f.Flow)
		}
	}
	if multi.JainIndex <= 0 || multi.JainIndex > 1 {
		t.Errorf("Jain index %v outside (0, 1]", multi.JainIndex)
	}

	mixed := results[2]
	if len(mixed.Flows) != 3 {
		t.Fatalf("sprout vs ledbat: %d flows, want 3", len(mixed.Flows))
	}
	schemes := map[string]int{}
	for _, f := range mixed.Flows {
		schemes[f.Scheme]++
	}
	if schemes["sprout"] != 2 || schemes["ledbat"] != 1 {
		t.Errorf("mixed groups = %v, want 2 sprout + 1 ledbat", schemes)
	}

	tun := results[3]
	if !tun.Spec.Tunnel {
		t.Error("tunnel flag lost")
	}
	if len(tun.Flows) != 1 || tun.Flows[0].ThroughputBps <= 0 {
		t.Errorf("tunneled hangout flows = %+v, want one delivering flow", tun.Flows)
	}
}

// TestRunAllDeterministicAcrossWorkers proves the scenario path inherits
// the engine's determinism contract: the same specs produce deeply equal
// results at one worker and at four.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	specs := shortSpecs(t)
	serial, _, err := RunAll(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := RunAll(context.Background(), specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("results differ between 1 and 4 workers")
	}
}

// TestRunUnknowns verifies Run rejects unresolvable specs.
func TestRunUnknowns(t *testing.T) {
	if _, err := Run(Spec{Scheme: "nope", Link: "Verizon LTE"}, nil); err == nil {
		t.Error("unknown scheme ran")
	}
	if _, err := Run(Spec{Scheme: "sprout", Link: "nope"}, nil); err == nil {
		t.Error("unknown link ran")
	}
}

// TestCoDelOverride checks the tri-state CoDel control: forcing the AQM
// onto plain cubic must cut its self-inflicted delay, and forcing it off
// cubic-codel must restore the bufferbloat.
func TestCoDelOverride(t *testing.T) {
	run := func(scheme string, codel *bool) Result {
		t.Helper()
		res, err := Run(Spec{
			Scheme: scheme, Link: "Verizon LTE", CoDel: codel,
			Duration: Duration(30 * time.Second), Skip: Duration(8 * time.Second),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tru, fls := true, false
	plain := run("cubic", nil)
	forcedOn := run("cubic", &tru)
	forcedOff := run("cubic-codel", &fls)
	if forcedOn.Metrics.SelfInflicted95 >= plain.Metrics.SelfInflicted95 {
		t.Errorf("cubic with forced CoDel: delay %v not below plain cubic %v",
			forcedOn.Metrics.SelfInflicted95, plain.Metrics.SelfInflicted95)
	}
	// cubic-codel with CoDel forced off is exactly plain cubic.
	if forcedOff.Metrics != plain.Metrics {
		t.Errorf("cubic-codel with CoDel off = %+v, want plain cubic %+v",
			forcedOff.Metrics, plain.Metrics)
	}
}

// TestInjectedTraceLoopsInMetrics: an injected trace shorter than the run
// loops on the link (mahimahi semantics), so the §5.1 omniscient bound and
// offered capacity must be those of the looped stream the link served —
// exactly what EvaluateStreaming reports when fed that stream — not of the
// bare recording, against which a 20 s run would claim several times the
// link's capacity.
func TestInjectedTraceLoopsInMetrics(t *testing.T) {
	pair, _ := LookupNetwork("Verizon LTE")
	rng := rand.New(rand.NewSource(5))
	data := pair.Down.Generate(5*time.Second, rng)
	fb := pair.Up.Generate(5*time.Second, rng)
	res, err := Run(Spec{
		Scheme:         "cubic",
		DataTrace:      data,
		FeedbackTrace:  fb,
		Duration:       Duration(20 * time.Second),
		Skip:           Duration(4 * time.Second),
		KeepDeliveries: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	from, to := time.Duration(res.Spec.Skip), time.Duration(res.Spec.Duration)
	cycles := int(to/data.Duration()) + 2
	looped := trace.Collect(trace.NewLoop(trace.NewReplay(data)), "looped", cycles*data.Count())
	if looped.Duration() < to {
		t.Fatalf("looped stream ends at %v, before the run's %v", looped.Duration(), to)
	}
	var a metrics.Accumulator
	a.Start(from, to, nil)
	a.TrackOpportunities(time.Duration(res.Spec.PropDelay))
	for _, d := range res.Deliveries {
		a.Observe(d)
	}
	for _, at := range looped.Opportunities {
		a.ObserveOpportunity(at)
	}
	if want := a.EvaluateStreaming(); res.Metrics != want {
		t.Errorf("metrics over the looped trace:\n got  %+v\n want %+v", res.Metrics, want)
	}
	if u := res.Metrics.Utilization; u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0, 1]", u)
	}
}
