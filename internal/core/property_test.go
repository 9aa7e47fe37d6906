package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveEvolve is a straightforward reference implementation of the
// evolution step, written independently of the optimized evolveWindow:
// build the full transition matrix row by row and multiply.
func naiveEvolve(src, kernel []float64, radius int, outageStay float64) []float64 {
	n := len(src)
	dst := make([]float64, n)
	// Rows j >= 1: truncated Gaussian with edge folding.
	for j := 1; j < n; j++ {
		for d := -radius; d <= radius; d++ {
			k := j + d
			w := src[j] * kernel[d+radius]
			switch {
			case k < 0:
				dst[0] += w
			case k >= n:
				dst[n-1] += w
			default:
				dst[k] += w
			}
		}
	}
	// Row 0: sticky outage.
	stay := src[0] * outageStay
	esc := src[0] * (1 - outageStay)
	dst[0] += stay
	for d := -radius; d <= radius; d++ {
		k := d
		w := esc * kernel[d+radius]
		switch {
		case k <= 0:
			dst[0] += w
		case k >= n:
			dst[n-1] += w
		default:
			dst[k] += w
		}
	}
	return dst
}

func TestEvolveMatchesNaiveReference(t *testing.T) {
	m := NewModel(Params{NumBins: 64, MaxRate: 250})
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random valid distribution.
		src := make([]float64, m.NumBins())
		var sum float64
		for i := range src {
			src[i] = rng.Float64()
			sum += src[i]
		}
		for i := range src {
			src[i] /= sum
		}
		want := naiveEvolve(src, m.kernel, m.radius, m.outageStay)
		got := make([]float64, len(src))
		lo, hi := evolveWindow(got, src, m.kernel, m.kernelPad, m.radius, m.outageStay, 0, len(src))
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				return false
			}
			if (i < lo || i >= hi) && got[i] != 0 {
				return false // support-window invariant violated
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestModelInvariantsUnderRandomOps drives the filter with arbitrary
// operation sequences and checks the distribution invariants hold at every
// step: nonnegative, sums to one, and summary statistics within range.
func TestModelInvariantsUnderRandomOps(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(2))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(Params{NumBins: 128})
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0:
				m.Evolve()
			case 1:
				m.Observe(float64(rng.Intn(30)) + rng.Float64())
			case 2:
				m.ObserveAtLeast(rng.Float64() * 10)
			case 3:
				m.Tick(float64(rng.Intn(25)))
			}
			var sum float64
			d := m.Distribution(nil)
			for _, p := range d {
				if p < 0 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			if mean := m.Mean(); mean < 0 || mean > m.p.MaxRate {
				return false
			}
			if q := m.Quantile(0.5); q < 0 || q > m.p.MaxRate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestForecastMonotoneUnderRandomHistories: whatever the observation
// history, the cumulative forecast must be nondecreasing across ticks and
// nonincreasing in confidence.
func TestForecastMonotoneUnderRandomHistories(t *testing.T) {
	m := NewModel(Params{NumBins: 64, MaxRate: 500})
	fc := NewDeliveryForecaster(m)
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(3))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m.Reset()
		for i := 0; i < 100; i++ {
			mode := Observation(rng.Intn(3))
			fc.Tick(rng.Float64()*float64(rng.Intn(12)), mode)
		}
		lo := fc.ForecastAt(nil, 0.95)
		hi := fc.ForecastAt(nil, 0.50)
		prev := -1.0
		for i := range lo {
			if lo[i] < prev {
				return false
			}
			prev = lo[i]
			if lo[i] > hi[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestObserveAtLeastNeverLowersUpperMass(t *testing.T) {
	// The censored update must never shift probability mass downward:
	// the posterior CDF after ObserveAtLeast(k) is stochastically
	// dominated by (i.e. everywhere <= ) the prior CDF.
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel(Params{NumBins: 64})
		// Random starting posterior via a few random observations.
		for i := 0; i < 10; i++ {
			m.Tick(float64(rng.Intn(15)))
		}
		before := m.Distribution(nil)
		m.ObserveAtLeast(rng.Float64() * 12)
		after := m.Distribution(nil)
		cb, ca := 0.0, 0.0
		for i := range before {
			cb += before[i]
			ca += after[i]
			if ca > cb+1e-9 {
				return false // mass moved downward
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// scatterEvolveReference is the pre-gather evolution implementation,
// kept verbatim as a reference: the branchy scatter whose accumulation
// order defined the golden hashes. evolveWindow must reproduce it bit for
// bit — not approximately — for any support window.
func scatterEvolveReference(dst, src, kernel []float64, radius int, outageStay float64, lo, hi int) (int, int) {
	n := len(src)
	for i := range dst {
		dst[i] = 0
	}
	j := lo
	if j < 1 {
		j = 1
	}
	for ; j < hi && j < radius; j++ {
		pj := src[j]
		if pj == 0 {
			continue
		}
		for k := j - radius; k <= j+radius; k++ {
			w := kernel[k-j+radius]
			switch {
			case k < 0:
				dst[0] += pj * w
			case k >= n:
				dst[n-1] += pj * w
			default:
				dst[k] += pj * w
			}
		}
	}
	for ; j < hi && j < n-radius; j++ {
		pj := src[j]
		if pj == 0 {
			continue
		}
		row := dst[j-radius : j-radius+len(kernel)]
		ker := kernel[:len(row)]
		for t := range row {
			row[t] += pj * ker[t]
		}
	}
	for ; j < hi; j++ {
		pj := src[j]
		if pj == 0 {
			continue
		}
		for k := j - radius; k <= j+radius; k++ {
			w := kernel[k-j+radius]
			switch {
			case k < 0:
				dst[0] += pj * w
			case k >= n:
				dst[n-1] += pj * w
			default:
				dst[k] += pj * w
			}
		}
	}
	p0 := src[0]
	if p0 > 0 {
		dst[0] += p0 * outageStay
		esc := p0 * (1 - outageStay)
		for k := -radius; k <= radius; k++ {
			w := kernel[k+radius]
			if k <= 0 {
				dst[0] += esc * w
			} else if k < n {
				dst[k] += esc * w
			} else {
				dst[n-1] += esc * w
			}
		}
	}
	newLo := lo - radius
	if newLo < 1 {
		newLo = 0
	}
	newHi := hi + radius
	if newHi > n {
		newHi = n
	}
	return newLo, newHi
}

// namedGather is one interior kernel under test.
type namedGather struct {
	name string
	fn   gatherFunc
}

// gatherKernels returns the interior kernels this machine can run: the
// portable Go gather always, the assembly kernel where the CPU has one.
func gatherKernels(t testing.TB) []namedGather {
	kernels := []namedGather{{"go", gatherGo}}
	if asmGather != nil {
		kernels = append(kernels, namedGather{"asm", asmGather})
	} else {
		t.Log("no assembly gather kernel on this machine; checking the Go gather only")
	}
	return kernels
}

// forEachGather runs fn once per interior kernel, with evolveWindow's
// package-level dispatch swapped to that kernel, and restores it after.
func forEachGather(t *testing.T, fn func(t *testing.T)) {
	saved := gatherInterior
	defer func() { gatherInterior = saved }()
	for _, k := range gatherKernels(t) {
		gatherInterior = k.fn
		t.Run(k.name, fn)
	}
}

// evolveMatchesScatter evolves src over [lo, hi) with evolveWindow and
// with the scatter reference, and reports the first difference: window
// bounds, or any bin not == bit for bit.
func evolveMatchesScatter(m *Model, src []float64, lo, hi int) error {
	n := len(src)
	want := make([]float64, n)
	wLo, wHi := scatterEvolveReference(want, src, m.kernel, m.radius, m.outageStay, lo, hi)
	got := make([]float64, n)
	gLo, gHi := evolveWindow(got, src, m.kernel, m.kernelPad, m.radius, m.outageStay, lo, hi)
	if gLo != wLo || gHi != wHi {
		return fmt.Errorf("window mismatch: got [%d,%d) want [%d,%d)", gLo, gHi, wLo, wHi)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("bin %d: got %x want %x (n=%d radius=%d lo=%d hi=%d)",
				i, got[i], want[i], n, m.radius, lo, hi)
		}
	}
	return nil
}

// TestEvolveGatherMatchesScatter pins the gather rewrite to the scatter
// reference bit for bit, for every interior kernel this machine runs,
// across bin counts (including n < 2·radius, where both edge folds
// overlap), kernel radii, support windows and sparse posteriors. Equality
// here is ==, not a tolerance: the golden hashes of every figure depend
// on it.
func TestEvolveGatherMatchesScatter(t *testing.T) {
	models := []*Model{
		NewModel(Params{}),
		NewModel(Params{NumBins: 64, MaxRate: 250}),
		NewModel(Params{NumBins: 33, MaxRate: 100, Sigma: 700}), // radius > n/2
		NewModel(Params{NumBins: 128, Sigma: 23}),
	}
	forEachGather(t, func(t *testing.T) {
		cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := models[rng.Intn(len(models))]
			n := m.NumBins()
			src := make([]float64, n)
			// Random support window; fill it with a mix of zero and
			// nonzero mass (interior zeros exercise the scatter's skip
			// guard).
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			var sum float64
			for j := lo; j < hi; j++ {
				if rng.Intn(3) == 0 {
					continue
				}
				src[j] = rng.Float64()
				sum += src[j]
			}
			if sum > 0 {
				for j := lo; j < hi; j++ {
					src[j] /= sum
				}
			}
			if err := evolveMatchesScatter(m, src, lo, hi); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

// TestEvolveKernelsAtGroupEdges checks each interior kernel against the
// scatter reference at the interior widths kHi−kLo where the assembly
// kernel's grouping changes shape — one short of a 16-lane group, exactly
// one, one over (an overlapping last group), the same around two groups,
// and the full 256-bin grid — plus the radius > n/2 model, and a
// full-width posterior trained at 0.12 packets per tick evolved step by
// step.
func TestEvolveKernelsAtGroupEdges(t *testing.T) {
	models := []*Model{
		NewModel(Params{}),                                      // radius 30
		NewModel(Params{Sigma: 40}),                             // radius 7
		NewModel(Params{NumBins: 128, Sigma: 23}),               // radius 3
		NewModel(Params{NumBins: 33, MaxRate: 100, Sigma: 700}), // radius > n/2
	}
	trained := NewModel(Params{})
	for i := 0; i < 500; i++ {
		trained.Tick(0.12)
	}
	if trained.lo != 0 || trained.hi != trained.NumBins() {
		t.Fatalf("trained posterior window [%d,%d), want the full grid", trained.lo, trained.hi)
	}

	forEachGather(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for _, width := range []int{15, 16, 17, 31, 32, 33, 254} {
			covered := false
			for _, m := range models {
				lo, hi, ok := windowForInteriorWidth(m, width)
				if !ok {
					continue
				}
				covered = true
				src := make([]float64, m.NumBins())
				for j := lo; j < hi; j++ {
					src[j] = rng.Float64()
				}
				if err := evolveMatchesScatter(m, src, lo, hi); err != nil {
					t.Errorf("interior width %d, radius %d: %v", width, m.radius, err)
				}
			}
			if !covered {
				t.Errorf("no test model yields interior width %d", width)
			}
		}
		for _, m := range models {
			if 2*m.radius > m.NumBins() {
				for lo := 0; lo < m.NumBins(); lo += 4 {
					src := make([]float64, m.NumBins())
					for j := lo; j < m.NumBins(); j++ {
						src[j] = rng.Float64()
					}
					if err := evolveMatchesScatter(m, src, lo, m.NumBins()); err != nil {
						t.Errorf("radius %d > n/2: %v", m.radius, err)
					}
				}
			}
		}
		m := trained.Clone()
		for i := 0; i < 200; i++ {
			if err := evolveMatchesScatter(m, m.probs, m.lo, m.hi); err != nil {
				t.Fatalf("trained posterior, tick %d: %v", i, err)
			}
			m.Tick(0.12)
		}
	})
}

// windowForInteriorWidth returns a source support window [lo, hi) whose
// evolution has interior width kHi−kLo == width under model m, or false
// if the model's radius and bin count cannot produce that width.
func windowForInteriorWidth(m *Model, width int) (lo, hi int, ok bool) {
	n, r := m.NumBins(), m.radius
	switch {
	case width == n-2 && n > 2:
		lo, hi = 0, n // the full grid: kLo = 1, kHi = n-1
	case width >= 2*r+1 && width+2 <= n:
		// Mid-grid: kLo = lo−r, kHi = hi+r, both clear of the edges.
		lo = 1 + r
		hi = lo + width - 2*r
	default:
		return 0, 0, false
	}
	kLo, kHi := lo-r, hi+r
	if kLo < 1 {
		kLo = 1
	}
	if kHi > n-1 {
		kHi = n - 1
	}
	return lo, hi, kHi-kLo == width
}
