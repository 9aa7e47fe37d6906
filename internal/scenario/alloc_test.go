package scenario

import (
	"testing"
	"time"

	"sprout/internal/engine"
)

// TestPooledWorldRerunAllocs pins the world-reuse contract at the
// experiment layer: once a worker's world is warm (arena grown, endpoints
// memoized, trace pair cached), re-running a job allocates nothing. This
// is what makes large scenario grids allocation-flat — every per-packet
// and per-run byte comes from retained state.
func TestPooledWorldRerunAllocs(t *testing.T) {
	spec := Spec{
		Scheme:   "sprout",
		Link:     "Verizon LTE",
		Duration: Duration(2 * time.Second),
		Skip:     Duration(500 * time.Millisecond),
		Seed:     3,
	}
	job := compile(spec, engine.NewCache())
	w := newWorld()
	run := func() {
		if _, err := job.run(w); err != nil {
			t.Fatal(err)
		}
	}
	run() // grow the arena, memoize endpoints, fill the trace cache
	run() // settle any second-order buffer growth
	if avg := testing.AllocsPerRun(5, run); avg > 0 {
		t.Errorf("warm pooled-world re-run allocates %.1f times per run, want 0", avg)
	}
}

// TestPooledWorldRerunMatchesFresh asserts reuse changes nothing: the same
// normalized spec run on a warm world and on a fresh world produce
// identical results.
func TestPooledWorldRerunMatchesFresh(t *testing.T) {
	spec := Spec{
		Scheme:   "sprout",
		Link:     "T-Mobile 3G (UMTS)",
		Duration: Duration(2 * time.Second),
		Skip:     Duration(500 * time.Millisecond),
		Seed:     9,
	}
	job := compile(spec, engine.NewCache())
	w := newWorld()
	if _, err := job.run(w); err != nil {
		t.Fatal(err) // warm the world on the same spec
	}
	warm, err := job.run(w)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := job.run(newWorld())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics != fresh.Metrics {
		t.Errorf("reused world diverged:\nwarm  %+v\nfresh %+v", warm.Metrics, fresh.Metrics)
	}
	if warm.Delay95 != fresh.Delay95 || warm.JainIndex != fresh.JainIndex {
		t.Errorf("aggregates diverged: %v/%v vs %v/%v",
			warm.Delay95, warm.JainIndex, fresh.Delay95, fresh.JainIndex)
	}
	if len(warm.Flows) != len(fresh.Flows) {
		t.Fatalf("flow counts differ: %d vs %d", len(warm.Flows), len(fresh.Flows))
	}
	for i := range warm.Flows {
		if warm.Flows[i] != fresh.Flows[i] {
			t.Errorf("flow %d differs: %+v vs %+v", i, warm.Flows[i], fresh.Flows[i])
		}
	}
}

// TestPooledWorldSchemeSwitch asserts the endpoint memo keeps schemes
// apart: alternating schemes (the matrix's scheme-major job order) on one
// world still matches fresh-world results.
func TestPooledWorldSchemeSwitch(t *testing.T) {
	mk := func(scheme string) Spec {
		return Spec{
			Scheme:   scheme,
			Link:     "Verizon LTE",
			Duration: Duration(2 * time.Second),
			Skip:     Duration(500 * time.Millisecond),
			Seed:     4,
		}
	}
	traces := engine.NewCache()
	w := newWorld()
	schemes := []string{"sprout", "cubic", "skype", "sprout", "cubic", "skype"}
	got := make([]Result, len(schemes))
	for i, s := range schemes {
		var err error
		got[i], err = compile(mk(s), traces).run(w)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if got[i].Metrics != got[i+3].Metrics {
			t.Errorf("%s: first run %+v != repeat %+v", schemes[i], got[i].Metrics, got[i+3].Metrics)
		}
		fresh, err := compile(mk(schemes[i]), traces).run(newWorld())
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Metrics != fresh.Metrics {
			t.Errorf("%s: pooled %+v != fresh %+v", schemes[i], got[i].Metrics, fresh.Metrics)
		}
	}
}
