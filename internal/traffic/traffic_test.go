package traffic

import (
	"math"
	"math/rand"
	"testing"

	"stat4/internal/packet"
)

func TestCaseStudyDests(t *testing.T) {
	dests := CaseStudyDests()
	if len(dests) != 36 {
		t.Fatalf("got %d destinations, want 36", len(dests))
	}
	subnets := map[byte]int{}
	slash8 := packet.NewPrefix(packet.ParseIP4(10, 0, 0, 0), 8)
	for _, d := range dests {
		if !slash8.Contains(d) {
			t.Fatalf("%v outside 10/8", d)
		}
		subnets[byte(d>>8)]++
	}
	if len(subnets) != 6 {
		t.Fatalf("got %d subnets, want 6", len(subnets))
	}
	for s, n := range subnets {
		if n != 6 {
			t.Fatalf("subnet %d has %d hosts, want 6", s, n)
		}
	}
}

func TestLoadBalancedRateAndSpread(t *testing.T) {
	g := &LoadBalanced{
		Dests: CaseStudyDests(),
		Rate:  100000,
		End:   1e9, // one second
		Seed:  1,
	}
	counts := map[packet.IP4]int{}
	n := 0
	var last uint64
	for {
		p, ok := g.Next()
		if !ok {
			break
		}
		if p.TsNs < last {
			t.Fatal("timestamps not monotone")
		}
		last = p.TsNs
		counts[p.Frame.IPv4.Dst]++
		n++
	}
	// Poisson at 100k pps over 1s → about 100k packets.
	if n < 95000 || n > 105000 {
		t.Fatalf("%d packets for 100k pps over 1s", n)
	}
	// Uniform spread: each of 36 destinations near n/36.
	want := float64(n) / 36
	for d, c := range counts {
		if math.Abs(float64(c)-want) > want/2 {
			t.Fatalf("destination %v got %d of ~%.0f", d, c, want)
		}
	}
}

func TestLoadBalancedDeterminism(t *testing.T) {
	mk := func() []Pkt {
		return Collect(&LoadBalanced{Dests: CaseStudyDests(), Rate: 1e6, End: 1e7, Seed: 7}, 0)
	}
	a, b := mk(), mk()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TsNs != b[i].TsNs || a[i].Frame.IPv4.Dst != b[i].Frame.IPv4.Dst {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestSpikeWindowed(t *testing.T) {
	g := &Spike{Dest: packet.ParseIP4(10, 0, 3, 2), Rate: 1e6, Start: 5e6, End: 6e6, Seed: 2}
	pkts := Collect(g, 0)
	if len(pkts) == 0 {
		t.Fatal("empty spike")
	}
	for _, p := range pkts {
		if p.TsNs < 5e6 || p.TsNs >= 6e6 {
			t.Fatalf("spike packet at %d outside [5e6,6e6)", p.TsNs)
		}
		if p.Frame.IPv4.Dst != packet.ParseIP4(10, 0, 3, 2) {
			t.Fatal("spike packet to wrong destination")
		}
	}
}

func TestSynFloodAllSyns(t *testing.T) {
	g := &SynFlood{Dest: packet.ParseIP4(10, 0, 1, 1), Rate: 1e6, End: 1e6, Seed: 3}
	pkts := Collect(g, 0)
	if len(pkts) < 500 {
		t.Fatalf("only %d flood packets", len(pkts))
	}
	srcs := map[packet.IP4]bool{}
	for _, p := range pkts {
		if !p.Frame.HasTCP || !p.Frame.TCP.SYN() {
			t.Fatal("flood packet is not a pure SYN")
		}
		srcs[p.Frame.IPv4.Src] = true
	}
	if len(srcs) < len(pkts)/2 {
		t.Fatalf("sources not spoofed: %d distinct of %d", len(srcs), len(pkts))
	}
}

func TestSourcedDrawsFromValues(t *testing.T) {
	g := &Sourced{
		Dest:   packet.ParseIP4(10, 0, 0, 1),
		Base:   packet.ParseIP4(198, 18, 0, 0),
		Values: ZipfValues(1.5, 1024, 9),
		Rate:   1e6,
		End:    1e7,
		Seed:   5,
	}
	pkts := Collect(g, 0)
	if len(pkts) < 5000 {
		t.Fatalf("only %d packets", len(pkts))
	}
	counts := map[packet.IP4]uint64{}
	for _, p := range pkts {
		if p.Frame.IPv4.Dst != packet.ParseIP4(10, 0, 0, 1) {
			t.Fatal("destination drifted")
		}
		counts[p.Frame.IPv4.Src]++
	}
	// A zipfian mix concentrates on value 0: the base source must dominate
	// while the tail stays populated.
	base := counts[packet.ParseIP4(198, 18, 0, 0)]
	if base < uint64(len(pkts))/10 {
		t.Fatalf("base source got %d of %d packets — no elephant", base, len(pkts))
	}
	if len(counts) < 50 {
		t.Fatalf("only %d distinct sources — no mice tail", len(counts))
	}
}

func TestWebMixSynFraction(t *testing.T) {
	g := &WebMix{Dests: CaseStudyDests(), Rate: 1e6, End: 1e8, Seed: 4}
	pkts := Collect(g, 0)
	syns := 0
	for _, p := range pkts {
		if p.Frame.TCP.SYN() {
			syns++
		}
	}
	frac := float64(syns) / float64(len(pkts))
	// Flows carry 3–10 data packets per SYN → SYN fraction ≈ 1/8.5.
	if frac < 0.05 || frac > 0.25 {
		t.Fatalf("SYN fraction %.3f implausible", frac)
	}
}

func TestMergeOrdersByTime(t *testing.T) {
	a := &LoadBalanced{Dests: CaseStudyDests(), Rate: 1e5, End: 1e8, Seed: 5}
	b := &Spike{Dest: packet.ParseIP4(10, 0, 0, 1), Rate: 1e5, Start: 3e7, End: 7e7, Seed: 6}
	var last uint64
	n := 0
	spikePkts := 0
	m := Merge(a, b)
	for {
		p, ok := m.Next()
		if !ok {
			break
		}
		if p.TsNs < last {
			t.Fatalf("merge out of order at %d", n)
		}
		last = p.TsNs
		if p.Frame.IPv4.Src == packet.ParseIP4(198, 51, 100, 7) {
			spikePkts++
		}
		n++
	}
	if spikePkts == 0 || spikePkts == n {
		t.Fatalf("merge lost a stream: %d of %d", spikePkts, n)
	}
}

func TestCollectLimit(t *testing.T) {
	g := &LoadBalanced{Dests: CaseStudyDests(), Rate: 1e6, End: 1e9, Seed: 8}
	if got := len(Collect(g, 10)); got != 10 {
		t.Fatalf("Collect(10) = %d", got)
	}
}

func TestValueStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	u := UniformValues(100)
	for i := 0; i < 1000; i++ {
		if v := u(rng); v >= 100 {
			t.Fatalf("uniform value %d out of range", v)
		}
	}

	nv := NormalValues(50, 10, 99)
	var sum float64
	for i := 0; i < 10000; i++ {
		v := nv(rng)
		if v > 99 {
			t.Fatalf("normal value %d above clamp", v)
		}
		sum += float64(v)
	}
	if mean := sum / 10000; mean < 45 || mean > 55 {
		t.Fatalf("normal mean %.1f, want ≈50", mean)
	}

	z := ZipfValues(1.5, 100, 13)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[z(rng)]++
	}
	if counts[0] < counts[50] {
		t.Fatal("zipf not head-heavy")
	}

	bi := BimodalValues(20, 80, 5, 0.5, 99)
	lo, hi := 0, 0
	for i := 0; i < 10000; i++ {
		v := bi(rng)
		switch {
		case v < 50:
			lo++
		default:
			hi++
		}
	}
	if lo < 3000 || hi < 3000 {
		t.Fatalf("bimodal modes unbalanced: %d/%d", lo, hi)
	}
}

// Collect drains a stream into a slice, stopping after max events (max ≤ 0
// means no limit). Intended for tests and small experiments.
func Collect(s Stream, max int) []Pkt {
	var out []Pkt
	for {
		p, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, p)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}
