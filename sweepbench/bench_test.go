package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"sprout/internal/scenario"
)

func TestLayerOfChargesInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "runtime.growslice", "sprout/internal/tcp.(*wireHeader).marshal", "sprout/internal/tcp.(*Sender).send", "sprout/internal/sim.(*Loop).Run"}, "tcp"},
		{[]string{"runtime.mapaccess2", "sprout/internal/metrics.(*Accumulator).Observe", "sprout/internal/link.(*Link).opportunity"}, "metrics"},
		{[]string{"sprout/internal/core.evolveWindow[...]", "sprout/internal/core.(*DeliveryForecaster).stepEvolve"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, "other"},
		{[]string{"main.(*jobSpans).wrap.func1", "sprout/internal/engine.(*Engine).Run.func1"}, "engine"},
		{nil, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

func TestAttributeSumsToProfiledCPU(t *testing.T) {
	samples := []cpuSample{
		{[]string{"runtime.mallocgc", "sprout/internal/tcp.f"}, 10e6},
		{[]string{"runtime.gcBgMarkWorker"}, 20e6},
		{[]string{"sprout/internal/core.g"}, 30e6},
		{[]string{"syscall.Syscall"}, 40e6},
	}
	per, total := attribute(samples)
	if math.Abs(total-0.1) > 1e-12 {
		t.Fatalf("total = %v, want 0.1", total)
	}
	want := map[string]float64{"tcp": 0.01, "gc": 0.02, "core": 0.03, "other": 0.04}
	sum := 0.0
	for l, v := range per {
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s = %v, want %v", l, v, want[l])
		}
		sum += v
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("layers sum to %v, profile to %v", sum, total)
	}
}

// pb builds protobuf messages for the decoder tests.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
	return b
}

func (b *pb) bytesField(num int, data []byte) *pb {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(data))))
	b.Write(data)
	return b
}

func packed(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

func TestDecodeProfileStacks(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "sprout/internal/tcp.(*Sender).send", "runtime.gcBgMarkWorker"}
	var p pb
	p.bytesField(profSampleType, (&pb{}).varint(valueTypeType, 1).varint(2, 2).Bytes())
	p.bytesField(profSampleType, (&pb{}).varint(valueTypeType, 3).varint(2, 4).Bytes())
	// Sample 1: packed fields; location 1 holds mallocgc inlined into send.
	p.bytesField(profSample, (&pb{}).bytesField(sampleLocation, packed(1)).bytesField(sampleValue, packed(1, 10_000_000)).Bytes())
	// Sample 2: unpacked fields.
	p.bytesField(profSample, (&pb{}).varint(sampleLocation, 2).varint(sampleValue, 1).varint(sampleValue, 20_000_000).Bytes())
	p.bytesField(profLocation, (&pb{}).varint(locationID, 1).
		bytesField(locationLine, (&pb{}).varint(lineFunction, 1).Bytes()).
		bytesField(locationLine, (&pb{}).varint(lineFunction, 2).Bytes()).Bytes())
	p.bytesField(profLocation, (&pb{}).varint(locationID, 2).
		bytesField(locationLine, (&pb{}).varint(lineFunction, 3).Bytes()).Bytes())
	for id, name := range []uint64{5, 6, 7} {
		p.bytesField(profFunction, (&pb{}).varint(functionID, uint64(id+1)).varint(functionName, name).Bytes())
	}
	for _, s := range strs {
		p.bytesField(profStringTable, []byte(s))
	}
	got, err := decodeProfile(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{[]string{"runtime.mallocgc", "sprout/internal/tcp.(*Sender).send"}, 10_000_000},
		{[]string{"runtime.gcBgMarkWorker"}, 20_000_000},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i].frames, want[i].frames) || got[i].cpuNs != want[i].cpuNs {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	per, _ := attribute(got)
	if per["tcp"] != 0.01 || per["gc"] != 0.02 {
		t.Errorf("attribution = %v", per)
	}
}

func TestReadProfileOfThisProcess(t *testing.T) {
	path := t.TempDir() + "/cpu.pprof"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		x += math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.cpuNs <= 0 || len(s.frames) == 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
}

func normalized(t *testing.T, specs []scenario.Spec) []scenario.Spec {
	t.Helper()
	out := make([]scenario.Spec, len(specs))
	for i, s := range specs {
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = n
	}
	return out
}

func TestFlowSeconds(t *testing.T) {
	for _, c := range []struct {
		workload    string
		jobs, flows int
		flowSeconds float64
	}{
		{"paper-matrix", 80, 80, 80 * 150},
		{"cell-sprout", 2, 64, 2 * 32 * 20},
		{"cell-tcp", 2, 512, 2 * 256 * 60},
	} {
		w, err := findWorkload(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		specs := normalized(t, w.specs(7))
		flows := 0
		for _, s := range specs {
			flows += specFlows(s)
		}
		if len(specs) != c.jobs || flows != c.flows {
			t.Errorf("%s: %d jobs, %d flows; want %d, %d", c.workload, len(specs), flows, c.jobs, c.flows)
		}
		if got := flowSeconds(specs); got != c.flowSeconds {
			t.Errorf("%s: %v flow-seconds, want %v", c.workload, got, c.flowSeconds)
		}
	}
	// A multi-group link spec counts every group's flows.
	specs := normalized(t, []scenario.Spec{{
		Groups: []scenario.FlowGroup{{Scheme: "cubic", Count: 2}, {Scheme: "skype"}},
		Link:   "Verizon LTE", Duration: scenario.Duration(10 * time.Second), Skip: scenario.Duration(time.Second),
	}})
	if got := flowSeconds(specs); got != 30 {
		t.Errorf("3 flows x 10 s = %v flow-seconds, want 30", got)
	}
}

func TestSpecsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := json.Marshal(w.specs(3))
		b, _ := json.Marshal(w.specs(3))
		c, _ := json.Marshal(w.specs(4))
		if !bytes.Equal(a, b) || bytes.Equal(a, c) {
			t.Errorf("%s: specs not determined by the seed", w.name)
		}
	}
	for seed := int64(0); seed < 1000; seed++ {
		if d := time.Duration(propDelay(seed)); d < 18*time.Millisecond || d > 22*time.Millisecond {
			t.Fatalf("seed %d: propagation delay %v outside [18 ms, 22 ms]", seed, d)
		}
	}
}

// goodResults fabricates passing results for the specs.
func goodResults(specs []scenario.Spec) []scenario.Result {
	res := make([]scenario.Result, len(specs))
	for i, s := range specs {
		res[i].Spec = s
		res[i].Metrics.Utilization = 0.5
		res[i].Metrics.ThroughputBps = 1e6
		delay := 2 * time.Second
		if s.Groups[0].Scheme == "sprout" {
			delay = 100 * time.Millisecond
		}
		res[i].Delay95 = delay
		for k := 0; k < specFlows(s); k++ {
			res[i].Flows = append(res[i].Flows, scenario.FlowResult{Flow: uint32(k), ThroughputBps: 1e6, Delay95: delay})
		}
	}
	return res
}

func TestFailedChecksCountAsFailedJobs(t *testing.T) {
	w, _ := findWorkload("paper-matrix")
	specs := normalized(t, w.specs(1))
	errs := make([]error, len(specs))
	if f := checkResults(w, specs, goodResults(specs), errs); len(f) != 0 {
		t.Fatalf("passing results failed: %v", f)
	}
	sproutAt := func(link, dir string) int {
		for i, s := range specs {
			if s.Link == link && s.Direction == dir && s.Groups[0].Scheme == "sprout" {
				return i
			}
		}
		t.Fatalf("no sprout job on %s %s", link, dir)
		return -1
	}
	for name, breakIt := range map[string]func(res []scenario.Result, errs []error){
		"error":       func(_ []scenario.Result, errs []error) { errs[3] = errors.New("boom") },
		"flow count":  func(res []scenario.Result, _ []error) { res[5].Flows = nil },
		"utilization": func(res []scenario.Result, _ []error) { res[7].Metrics.Utilization = 1.5 },
		"nan util":    func(res []scenario.Result, _ []error) { res[7].Metrics.Utilization = math.NaN() },
		"throughput":  func(res []scenario.Result, _ []error) { res[9].Metrics.ThroughputBps = -1 },
		"flow inf":    func(res []scenario.Result, _ []error) { res[9].Flows[0].ThroughputBps = math.Inf(1) },
		"ordering": func(res []scenario.Result, _ []error) {
			res[sproutAt("AT&T LTE", "up")].Delay95 = 5 * time.Second
		},
	} {
		res := goodResults(specs)
		errs := make([]error, len(specs))
		breakIt(res, errs)
		if f := checkResults(w, specs, res, errs); len(f) != 1 {
			t.Errorf("%s: %d failed jobs %v, want 1", name, len(f), f)
		}
	}
}

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	reps := []sweepReport{{Jobs: 2, Digest: "a"}, {Jobs: 2, Digest: "a"}, {Jobs: 2, Digest: "b", Failures: []string{"x"}}}
	attempted, failed := tally(reps)
	if attempted != 6 || failed != 2 {
		t.Errorf("tally = %d attempted, %d failed; want 6, 2", attempted, failed)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
		}
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: bad unit %q", name, unit)
		}
		if seen[name] {
			t.Errorf("metric %s listed twice", name)
		}
		seen[name] = true
	}
	for _, m := range endToEndMetrics {
		check(m.name, m.unit)
	}
	for _, name := range perLayerMetrics() {
		check(name, unitOf(name))
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code has %d", names, len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if e := bf.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit {
			t.Errorf("end_to_end[%d] = %s %s, code reports %s %s", i, e.Name, e.Unit, m.name, m.unit)
		}
	}
	layer := perLayerMetrics()
	if len(bf.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(layer))
	}
	for i, name := range layer {
		if e := bf.PerLayer[i]; e.Name != name || e.Unit != unitOf(name) {
			t.Errorf("per_layer[%d] = %s %s, code reports %s %s", i, e.Name, e.Unit, name, unitOf(name))
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("p25 = %v", q)
	}
	if q := quantile(xs, 0.99); math.Abs(q-4.96) > 1e-9 {
		t.Errorf("p99 = %v", q)
	}
}

func TestCalibrated(t *testing.T) {
	if got := calibrated(1000, calReferenceSeconds); got != 1000 {
		t.Errorf("at the reference speed: %v, want 1000", got)
	}
	// A host running the kernel at half speed ran the sweeps slow too.
	if got := calibrated(1000, 2*calReferenceSeconds); got != 500 {
		t.Errorf("at half speed: %v, want 500", got)
	}
	if s := calibrate(2); !(s > 0) {
		t.Errorf("calibrate took %v s", s)
	}
}
