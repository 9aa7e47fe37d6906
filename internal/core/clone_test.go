package core

import (
	"math/rand"
	"sync"
	"testing"
)

func TestModelCloneIndependent(t *testing.T) {
	m := NewModel(Params{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		m.Tick(float64(poissonSample(rng, 6)))
	}
	c := m.Clone()
	if got, want := c.Mean(), m.Mean(); got != want {
		t.Fatalf("clone mean = %v, want %v", got, want)
	}
	// Advancing the original must not disturb the clone, and vice versa.
	beforeClone := c.Distribution(nil)
	m.Tick(0)
	afterClone := c.Distribution(nil)
	for j := range beforeClone {
		if beforeClone[j] != afterClone[j] {
			t.Fatalf("ticking original changed clone at bin %d", j)
		}
	}
	c.Tick(12)
	if c.Mean() == m.Mean() {
		t.Error("clone and original should have diverged")
	}
}

func TestModelCloneMatchesOriginalEvolution(t *testing.T) {
	// A clone fed the same observations as its source must track it bit
	// for bit — the property the parallel engine relies on.
	a := NewModel(Params{})
	rng := rand.New(rand.NewSource(2))
	obs := make([]float64, 200)
	for i := range obs {
		obs[i] = float64(poissonSample(rng, 8))
	}
	for _, o := range obs[:100] {
		a.Tick(o)
	}
	b := a.Clone()
	for _, o := range obs[100:] {
		a.Tick(o)
		b.Tick(o)
	}
	da, db := a.Distribution(nil), b.Distribution(nil)
	for j := range da {
		if da[j] != db[j] {
			t.Fatalf("posteriors diverged at bin %d: %v vs %v", j, da[j], db[j])
		}
	}
}

func TestModelCloneSetSigmaIsolated(t *testing.T) {
	m := NewModel(Params{})
	c := m.Clone()
	c.SetSigma(800)
	if m.Sigma() != DefaultSigma {
		t.Errorf("SetSigma on clone leaked into original: %v", m.Sigma())
	}
	if c.Sigma() != 800 {
		t.Errorf("clone sigma = %v, want 800", c.Sigma())
	}
	// Both must still evolve without panicking (kernel not shared-mutated).
	m.Tick(6)
	c.Tick(6)
}

func TestForecasterCloneIdenticalForecasts(t *testing.T) {
	f := trainedForecaster(t, 300, 21)
	c := f.Clone()
	if c.tbl != f.tbl {
		t.Error("clone should share the immutable CDF table")
	}
	a := f.Forecast(nil)
	b := c.Forecast(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forecast[%d]: clone %v != original %v", i, b[i], a[i])
		}
	}
	// Independent evolution after cloning.
	f.Tick(0, ObsExact)
	f.Tick(0, ObsExact)
	a = f.Forecast(nil)
	b = c.Forecast(nil)
	if a[7] >= b[7] {
		t.Errorf("original saw an outage, clone did not: %v vs %v", a[7], b[7])
	}
}

func TestForecastTableSharedAcrossForecasters(t *testing.T) {
	f1 := NewDeliveryForecaster(NewModel(Params{}))
	f2 := NewDeliveryForecaster(NewModel(Params{}))
	if f1.tbl != f2.tbl {
		t.Error("same parameters should share one CDF table")
	}
	f3 := NewDeliveryForecaster(NewModel(Params{NumBins: 64}))
	if f3.tbl == f1.tbl {
		t.Error("different parameters must not share a table")
	}
	// Confidence shapes the quantile, not the table.
	f4 := NewDeliveryForecaster(NewModel(Params{Confidence: 0.5}))
	if f4.tbl != f1.tbl {
		t.Error("confidence sweep should reuse the table")
	}
}

// TestForecastTableSingleFlight: forecasters built concurrently at a new
// key share one table from one build — the fold is never raced.
func TestForecastTableSingleFlight(t *testing.T) {
	// Run against an empty cache so earlier tests cannot have filled it.
	tableMu.Lock()
	saved := tableCache
	tableCache = map[tableKey]*tableEntry{}
	tableMu.Unlock()
	defer func() {
		tableMu.Lock()
		tableCache = saved
		tableMu.Unlock()
	}()
	_, misses0, _ := TableCacheStats()
	fs := make([]*DeliveryForecaster, 8)
	var wg sync.WaitGroup
	for i := range fs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs[i] = NewDeliveryForecaster(NewModel(Params{NumBins: 48, MaxRate: 123}))
		}(i)
	}
	wg.Wait()
	for i, f := range fs {
		if f.tbl != fs[0].tbl || f.tbl.fold == nil {
			t.Fatalf("forecaster %d got its own or an unbuilt table", i)
		}
	}
	if _, misses, _ := TableCacheStats(); misses-misses0 != 1 {
		t.Errorf("%d builds stored for one key, want 1", misses-misses0)
	}
}

func TestForecastTableCacheBounded(t *testing.T) {
	// Sweeping a table-shaping parameter past the cache limit must keep
	// working (uncached builds), not retain a table per value forever.
	var fs []*DeliveryForecaster
	for i := 0; i < TableCacheLimit+4; i++ {
		f := NewDeliveryForecaster(NewModel(Params{NumBins: 32, MaxRate: 100 + float64(i)}))
		f.Tick(2, ObsExact)
		if fc := f.Forecast(nil); len(fc) != DefaultForecastTicks {
			t.Fatalf("sweep %d: forecast length %d", i, len(fc))
		}
		fs = append(fs, f)
	}
	tableMu.Lock()
	n := len(tableCache)
	tableMu.Unlock()
	if n > TableCacheLimit {
		t.Errorf("table cache grew to %d entries, limit %d", n, TableCacheLimit)
	}
	_ = fs
}

func TestForecastTablePerTickBounds(t *testing.T) {
	p := DefaultParams()
	f := NewDeliveryForecaster(NewModel(Params{}))
	tau := p.Tick.Seconds()
	for i := 0; i < p.ForecastTicks; i++ {
		want := int(p.MaxRate*tau*float64(i+1)*1.25) + 10
		if f.tbl.maxK[i] != want {
			t.Errorf("maxK[%d] = %d, want %d", i, f.tbl.maxK[i], want)
		}
		if i > 0 && f.tbl.maxK[i] <= f.tbl.maxK[i-1] {
			t.Errorf("per-tick bounds must grow: maxK[%d]=%d maxK[%d]=%d",
				i-1, f.tbl.maxK[i-1], i, f.tbl.maxK[i])
		}
	}
	// Spot-check the flattened layout against a direct CDF evaluation:
	// row(tick, k)[j] must be nondecreasing in k for every bin.
	for _, tick := range []int{0, p.ForecastTicks - 1} {
		for j := 0; j < f.tbl.bins; j += 37 {
			prev := -1.0
			for k := 0; k <= f.tbl.maxK[tick]; k++ {
				v := f.tbl.row(tick, k)[j]
				if v < prev {
					t.Fatalf("CDF not monotone at tick %d bin %d count %d", tick, j, k)
				}
				prev = v
			}
			if last := f.tbl.row(tick, f.tbl.maxK[tick])[j]; last < 0.999 {
				t.Errorf("tick %d bin %d: CDF at bound = %v, padding too small", tick, j, last)
			}
		}
	}
}

func TestForecasterClonesConcurrent(t *testing.T) {
	// Hammer clones from multiple goroutines; with -race this proves the
	// shared table and kernel really are read-only.
	base := trainedForecaster(t, 300, 22)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := base.Clone()
			for i := 0; i < 50; i++ {
				f.Tick(6, ObsExact)
			}
			results[w] = f.Forecast(nil)
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d diverged from worker 0 at tick %d", w, i)
			}
		}
	}
}
