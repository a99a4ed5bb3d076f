// Package workload generates the synthetic inputs that substitute for the
// paper's proprietary data sources: sampled router flow exports,
// smart-factory sensor streams, and the enterprise query trace used to
// evaluate adaptive replication.
package workload

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"megadata/internal/flow"
)

// FlowConfig parameterizes the synthetic flow trace generator.
type FlowConfig struct {
	// Seed makes the trace deterministic.
	Seed int64
	// Sources is the number of distinct source hosts.
	Sources int
	// Destinations is the number of distinct destination hosts.
	Destinations int
	// Skew is the Zipf exponent (s>1 per math/rand; typical traffic
	// 1.05-1.4). Higher means more concentrated traffic.
	Skew float64
	// SrcNets are the /8 networks source hosts are clustered into;
	// defaults to {10} (i.e. 10.0.0.0/8).
	SrcNets []byte
	// DstNets are the /8 networks destinations are clustered into;
	// defaults to {192}.
	DstNets []byte
	// SampleRate applies 1-in-N packet sampling as in §II-B of the paper
	// ("1 of every 10K packets"); 0 or 1 disables sampling.
	SampleRate int
	// Start is the timestamp of the first epoch.
	Start time.Time
	// Epoch is the flow-export binning interval.
	Epoch time.Duration
}

func (c *FlowConfig) setDefaults() {
	if c.Sources <= 0 {
		c.Sources = 1 << 14
	}
	if c.Destinations <= 0 {
		c.Destinations = 1 << 12
	}
	if c.Skew <= 1 {
		c.Skew = 1.1
	}
	if len(c.SrcNets) == 0 {
		c.SrcNets = []byte{10}
	}
	if len(c.DstNets) == 0 {
		c.DstNets = []byte{192}
	}
	if c.Epoch <= 0 {
		c.Epoch = time.Minute
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	}
}

// FlowGen produces flow records with Zipf-distributed endpoint popularity
// clustered inside realistic prefixes, so that both heavy-hitter detection
// and prefix aggregation have structure to find.
type FlowGen struct {
	cfg     FlowConfig
	rng     *rand.Rand
	srcZipf *rand.Zipf
	dstZipf *rand.Zipf
	srcAddr []flow.IPv4
	dstAddr []flow.IPv4
	epoch   int
}

// Well-known destination ports the generator draws from.
var _commonPorts = []uint16{80, 443, 53, 22, 25, 123, 8080, 3389}

// NewFlowGen builds a deterministic flow generator.
func NewFlowGen(cfg FlowConfig) (*FlowGen, error) {
	cfg.setDefaults()
	if cfg.SampleRate < 0 {
		return nil, errors.New("workload: sample rate must be >= 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &FlowGen{
		cfg:     cfg,
		rng:     rng,
		srcZipf: rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Sources-1)),
		dstZipf: rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Destinations-1)),
		srcAddr: clusterAddrs(rng, cfg.Sources, cfg.SrcNets),
		dstAddr: clusterAddrs(rng, cfg.Destinations, cfg.DstNets),
	}
	return g, nil
}

// clusterAddrs assigns n hosts to addresses clustered in the given /8
// networks: hosts are spread over a small number of /16s and /24s inside
// each network so that prefix aggregation is meaningful. Popular hosts
// (low rank) land in the same subnets, giving prefixes genuine weight.
func clusterAddrs(rng *rand.Rand, n int, nets []byte) []flow.IPv4 {
	addrs := make([]flow.IPv4, n)
	// Number of /24s scales with sqrt(n) so average occupancy grows too.
	subnets := int(math.Sqrt(float64(n)))
	if subnets < 1 {
		subnets = 1
	}
	for i := range addrs {
		net := nets[i%len(nets)]
		subnet := i % subnets // popular ranks share low subnets
		second := byte(subnet >> 8)
		third := byte(subnet)
		host := byte(rng.Intn(254) + 1)
		addrs[i] = flow.IPv4(uint32(net)<<24 | uint32(second)<<16 | uint32(third)<<8 | uint32(host))
	}
	return addrs
}

// Next returns the next flow record. Sampling (if configured) thins each
// flow's packets 1-in-N (Poisson approximation of binomial thinning) and
// scales the surviving counts back up by N — the standard inversion
// estimate, so expected totals are preserved. Flows whose packets all miss
// the sampler are dropped; ok=false is returned only if 64 consecutive
// flows are dropped.
func (g *FlowGen) Next() (flow.Record, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		rec := g.raw()
		if g.cfg.SampleRate <= 1 {
			return rec, true
		}
		n := float64(g.cfg.SampleRate)
		kept := g.poisson(float64(rec.Packets) / n)
		if kept == 0 {
			continue
		}
		bytesPerPkt := float64(rec.Bytes) / float64(rec.Packets)
		rec.Packets = kept * uint64(g.cfg.SampleRate)
		rec.Bytes = uint64(float64(rec.Packets) * bytesPerPkt)
		return rec, true
	}
	return flow.Record{}, false
}

// poisson draws from Poisson(lambda) via Knuth for small lambda and a
// normal approximation for large lambda.
func (g *FlowGen) poisson(lambda float64) uint64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*g.rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return uint64(math.Round(v))
	}
	l := math.Exp(-lambda)
	var k uint64
	p := 1.0
	for {
		p *= g.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func (g *FlowGen) raw() flow.Record {
	src := g.srcAddr[g.srcZipf.Uint64()]
	dst := g.dstAddr[g.dstZipf.Uint64()]
	proto := flow.ProtoTCP
	switch g.rng.Intn(10) {
	case 0:
		proto = flow.ProtoUDP
	case 1:
		proto = flow.ProtoICMP
	}
	dport := _commonPorts[g.rng.Intn(len(_commonPorts))]
	sport := uint16(g.rng.Intn(60000) + 1024)
	// Heavy-tailed flow sizes: log-normal packets, bytes = packets * MTU-ish.
	packets := uint64(math.Exp(g.rng.NormFloat64()*1.5+2)) + 1
	bytes := packets * uint64(g.rng.Intn(1200)+300)
	return flow.Record{
		Key:     flow.Exact(proto, src, dst, sport, dport),
		Packets: packets,
		Bytes:   bytes,
		Start:   g.cfg.Start.Add(time.Duration(g.epoch) * g.cfg.Epoch),
	}
}

// NextEpoch advances the generator to the next export interval.
func (g *FlowGen) NextEpoch() { g.epoch++ }

// EpochStart returns the timestamp of the current epoch.
func (g *FlowGen) EpochStart() time.Time {
	return g.cfg.Start.Add(time.Duration(g.epoch) * g.cfg.Epoch)
}

// Records generates n records in the current epoch.
func (g *FlowGen) Records(n int) []flow.Record {
	out := make([]flow.Record, 0, n)
	for len(out) < n {
		if rec, ok := g.Next(); ok {
			out = append(out, rec)
		}
	}
	return out
}

// DDoSBurst generates n records of a synthetic volumetric attack: many
// sources inside one /16 flooding a single destination host and port. Used
// by the network-monitoring example to exercise drill-down queries.
func (g *FlowGen) DDoSBurst(n int, victim flow.IPv4, port uint16) []flow.Record {
	out := make([]flow.Record, 0, n)
	attackNet := uint32(203)<<24 | uint32(0)<<16 // 203.0.0.0/16
	for i := 0; i < n; i++ {
		src := flow.IPv4(attackNet | uint32(g.rng.Intn(65536)))
		packets := uint64(g.rng.Intn(1000) + 500)
		out = append(out, flow.Record{
			Key:     flow.Exact(flow.ProtoUDP, src, victim, uint16(g.rng.Intn(60000)+1024), port),
			Packets: packets,
			Bytes:   packets * 64,
			Start:   g.EpochStart(),
		})
	}
	return out
}
