package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// endToEndMetrics are what an untraced run reports; BENCHMARK.json's
// end_to_end list must match it.
var endToEndMetrics = []struct{ name, unit string }{
	{"ns_per_flow_s", "ns"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"sim_tput_kbps", "kbit/s"},
	{"sim_delay95_ms", "ms"},
}

// profileLayers are the layers a traced run charges profiled CPU to: the
// repository modules a sweep links, background GC, and everything else.
var profileLayers = []string{
	"app", "cell", "codel", "core", "engine", "link", "metrics", "network",
	"protocol", "scenario", "sim", "stats", "tcp", "trace", "transport", "tunnel",
	"gc", "other",
}

// probeMetrics are the layer probes: layer, operation and unit.
var probeMetrics = []struct{ layer, op, unit string }{
	{"core", "tick", "ns"},
	{"core", "forecast", "ns"},
	{"core", "batch", "ns_per_flow"},
	{"core", "table_build", "ms"},
	{"sim", "event", "ns"},
	{"link", "opportunity", "ns"},
	{"cell", "grant", "ns"},
	{"trace", "next", "ns"},
	{"metrics", "observe", "ns"},
	{"engine", "encode", "ns_per_record"},
	{"engine", "decode", "ns_per_record"},
	{"engine", "merge", "ns_per_record"},
}

// spanMetrics are the figures derived from the traced run's spans and the
// warm re-run.
var spanMetrics = []string{
	"profile.cpu_s",
	"engine.busy_s", "engine.idle_s", "engine.job_p50_ms",
	"scenario.load_ms", "scenario.compile_ms", "scenario.trace_mem_mb",
	"scenario.warm_ns_per_flow_s",
	"tracing.traced_ns_per_flow_s", "tracing.overhead_ns_per_flow_s",
}

// perLayerMetrics lists every metric a traced run reports, in a fixed
// order; BENCHMARK.json's per_layer list must match it.
func perLayerMetrics() []string {
	var names []string
	for _, l := range profileLayers {
		names = append(names, l+".self_s")
	}
	names = append(names, spanMetrics...)
	for _, p := range probeMetrics {
		names = append(names,
			fmt.Sprintf("%s.%s_%s", p.layer, p.op, p.unit),
			fmt.Sprintf("%s.%s_p99_%s", p.layer, p.op, p.unit),
			fmt.Sprintf("%s.%s_samples", p.layer, p.op))
	}
	return names
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_samples", "count"},
		{"_ns_per_flow_s", "ns"},
		{"_ns_per_record", "ns"},
		{"_ns_per_flow", "ns"},
		{"_ns", "ns"},
		{"_ms", "ms"},
		{"_s", "s"},
		{"_mb", "MB"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	panic("no unit for metric " + name)
}

// writeLayerTable prints the traced run's profile attribution, each
// layer's share of profiled CPU, for a reader.
func writeLayerTable(w io.Writer, workload string, m map[string]float64) {
	cpu := m["profile.cpu_s"]
	layers := append([]string(nil), profileLayers...)
	sort.SliceStable(layers, func(i, j int) bool { return m[layers[i]+".self_s"] > m[layers[j]+".self_s"] })
	fmt.Fprintf(w, "sweepbench: %s profile, %.2f s CPU:\n", workload, cpu)
	for _, l := range layers {
		if s := m[l+".self_s"]; s > 0 {
			fmt.Fprintf(w, "  %-10s %8.3f s %6.1f%%\n", l, s, 100*s/cpu)
		}
	}
}

// vcsRevision returns the revision stamped into the build, or "".
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
