package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sprout/internal/trace"
)

// tickCounts bins delivery opportunities into per-tick packet counts,
// each opportunity worth share of a packet (a flow's slice of a shared
// link).
func tickCounts(opps []time.Duration, tick time.Duration, ticks int, share float64) []float64 {
	out := make([]float64, ticks)
	for _, at := range opps {
		if i := int(at / tick); i < ticks {
			out[i] += share
		}
	}
	return out
}

// oracleMode cycles through the three observation kinds, so the oracle
// also sees posteriors shaped by censored and skipped ticks.
func oracleMode(i int) Observation {
	switch {
	case i%11 == 0:
		return ObsSkip
	case i%7 == 0:
		return ObsAtLeast
	}
	return ObsExact
}

// TestFoldedForecastMatchesEvolved is the fold's oracle: on posteriors
// trained on the eight canonical links and on a shared cell's low
// per-flow rates, the folded ForecastAll must equal the evolve-then-mix
// route exactly, value for value, at every tick and confidence.
func TestFoldedForecastMatchesEvolved(t *testing.T) {
	dur := 10 * time.Second
	if testing.Short() {
		dur = 4 * time.Second // still ~70k values; keeps the race run quick
	}
	ticks := int(dur / DefaultTick)
	confs := []float64{0.5, 0.9, 0.95, 0.99}
	type input struct {
		name   string
		counts []float64
	}
	var inputs []input
	links := trace.CanonicalLinks()
	for i, lm := range links {
		tr := lm.Generate(dur, rand.New(rand.NewSource(int64(i)+1)))
		inputs = append(inputs, input{lm.Name, tickCounts(tr.Opportunities, DefaultTick, ticks, 1)})
	}
	// One LTE downlink shared by 4, 16 and 64 backlogged flows.
	cell := links[0].Generate(dur, rand.New(rand.NewSource(99)))
	for _, flows := range []int{4, 16, 64} {
		inputs = append(inputs, input{fmt.Sprintf("%s/%d flows", links[0].Name, flows), tickCounts(cell.Opportunities, DefaultTick, ticks, 1/float64(flows))})
	}

	values := 0
	var folded, evolved []float64
	for _, in := range inputs {
		f := NewDeliveryForecaster(NewModel(Params{}))
		for i := -1; i < ticks; i++ {
			if i >= 0 {
				f.Tick(in.counts[i], oracleMode(i))
			}
			if f.model.p.Sigma != f.tbl.sigma {
				t.Fatalf("%s: default forecaster is not on the folded route", in.name)
			}
			folded = f.ForecastAll(folded[:0], confs)
			evolved = f.forecastAll(evolved[:0], confs, false)
			for k := range folded {
				if folded[k] != evolved[k] {
					t.Fatalf("%s tick %d: conf %v horizon %d: folded %v, evolved %v",
						in.name, i, confs[k/DefaultForecastTicks], k%DefaultForecastTicks+1, folded[k], evolved[k])
				}
			}
			values += len(folded)
		}
	}
	if values < 20000 {
		t.Fatalf("oracle compared only %d forecast values, want >= 20000", values)
	}
	t.Logf("%d folded forecast values equal the evolved ones", values)
}

// TestAdaptedSigmaFallsBack: once adaptation moves σ off the folded
// kernel, the forecaster takes the unfolded route (its own σ, not the
// table's); Reset restores σ and with it the folded route.
func TestAdaptedSigmaFallsBack(t *testing.T) {
	a := NewAdaptiveForecaster(NewModel(Params{}), AdaptiveConfig{})
	rng := rand.New(rand.NewSource(5))
	tau := DefaultTick.Seconds()
	for i := 0; i < 3000 && a.Adaptations() == 0; i++ {
		a.Tick(float64(poissonSample(rng, 400*tau)), ObsExact)
	}
	if a.Adaptations() == 0 {
		t.Fatal("steady link never adapted σ")
	}
	if a.Model().Sigma() == a.tbl.sigma {
		t.Fatal("adapted σ still matches the folded table")
	}
	got := a.Forecast(nil)
	want := a.forecastAll(nil, []float64{DefaultConfidence}, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("horizon %d: adapted forecast %v, unfolded route %v", i+1, got[i], want[i])
		}
	}
	a.Reset()
	if a.Model().Sigma() != a.tbl.sigma {
		t.Fatalf("Reset left σ at %v, table folded at %v", a.Model().Sigma(), a.tbl.sigma)
	}
}

// TestFoldTableMonotone: every folded row is elementwise nondecreasing in
// the count, which is what keeps the quantile search order-independent.
func TestFoldTableMonotone(t *testing.T) {
	f := NewDeliveryForecaster(NewModel(Params{}))
	tb := f.tbl
	for tick := range tb.off {
		for k := 1; k <= tb.maxK[tick]; k++ {
			prev := tb.fold[tb.off[tick]+(k-1)*tb.bins:]
			cur := tb.fold[tb.off[tick]+k*tb.bins:]
			for j := 0; j < tb.bins; j++ {
				if cur[j] < prev[j] {
					t.Fatalf("tick %d bin %d: G[%d] = %v < G[%d] = %v", tick, j, k, cur[j], k-1, prev[j])
				}
			}
		}
	}
}
