package harness

import (
	"fmt"
	"time"

	"sprout/internal/scenario"
	"sprout/internal/trace"
)

// TunnelResult is the §5.7 comparison: a TCP Cubic bulk download competing
// with a Skype-model videoconference over the Verizon LTE downlink, run
// directly on the link versus through SproutTunnel.
type TunnelResult struct {
	CubicKbpsDirect, CubicKbpsTunnel float64
	SkypeKbpsDirect, SkypeKbpsTunnel float64
	SkypeDelay95Direct               time.Duration
	SkypeDelay95Tunnel               time.Duration
	TunnelHeadDrops                  int64
}

// Client flow identifiers inside the shared link / tunnel. The historical
// ids are pinned in the specs so regenerated tables stay byte-identical.
const (
	flowCubic = 10
	flowSkype = 20
)

// tunnelClientMSS keeps the historical name for the tunnel client packet
// size (see scenario.TunnelClientMSS for the rationale).
const tunnelClientMSS = scenario.TunnelClientMSS

// RunTunnelComparison executes both halves of the §5.7 experiment: the
// same two-group scenario spec (Cubic bulk + Skype call on one Verizon LTE
// downlink), once direct and once with Tunnel set, as parallel engine jobs
// over one shared trace pair.
func RunTunnelComparison(opt Options) (TunnelResult, error) {
	opt = opt.withDefaults()
	mkSpec := func(name string, tunnel bool) scenario.Spec {
		spec := opt.baseSpec()
		spec.Name = name
		spec.Groups = []scenario.FlowGroup{
			{Scheme: "cubic", Count: 1, BaseFlow: flowCubic},
			{Scheme: "skype", Count: 1, BaseFlow: flowSkype},
		}
		spec.Tunnel = tunnel
		spec.Link = trace.CanonicalNetworks()[0].Name // Verizon LTE
		return spec
	}
	results, _, err := runSpecs(opt, []scenario.Spec{mkSpec("direct", false), mkSpec("tunneled", true)}, nil)
	if err != nil {
		return TunnelResult{}, err
	}
	direct, tunneled := results[0], results[1]

	flowOf := func(r scenario.Result, flow uint32) (scenario.FlowResult, error) {
		for _, f := range r.Flows {
			if f.Flow == flow {
				return f, nil
			}
		}
		return scenario.FlowResult{}, fmt.Errorf("harness: %s: no result for flow %d", r.Spec.Name, flow)
	}
	var out TunnelResult
	for _, part := range []struct {
		res       scenario.Result
		cubicKbps *float64
		skypeKbps *float64
		delay     *time.Duration
	}{
		{direct, &out.CubicKbpsDirect, &out.SkypeKbpsDirect, &out.SkypeDelay95Direct},
		{tunneled, &out.CubicKbpsTunnel, &out.SkypeKbpsTunnel, &out.SkypeDelay95Tunnel},
	} {
		cubic, err := flowOf(part.res, flowCubic)
		if err != nil {
			return TunnelResult{}, err
		}
		skype, err := flowOf(part.res, flowSkype)
		if err != nil {
			return TunnelResult{}, err
		}
		*part.cubicKbps = cubic.ThroughputBps / 1000
		*part.skypeKbps = skype.ThroughputBps / 1000
		*part.delay = skype.Delay95
	}
	out.TunnelHeadDrops = tunneled.HeadDrops
	return out, nil
}
