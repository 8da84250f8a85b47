package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/traffic"
)

// StrictAccuracyRow summarises how far the multiplication-free (Strict)
// emission's variance and standard deviation drift from the exact
// behavioral-model emission on the same packet stream — the cost of the
// paper's "approximate squaring by using shifting operations" on hardware
// targets.
type StrictAccuracyRow struct {
	Metric     string
	MeanRelErr float64
	MaxRelErr  float64
	Samples    int
}

// StrictAccuracy drives the same per-destination frequency stream through a
// bmv2-mode and a strict-mode switch, sampling variance and σ every 100
// packets once both are warm.
func StrictAccuracy(packets int, seed int64) []StrictAccuracyRow {
	mk := func(strict bool) *stat4p4.Runtime {
		opts := stat4p4.Options{Slots: 1, Size: 64, Stages: 1}
		if strict {
			opts.Strict = true
			opts.StrictCapShift = 6
		}
		rt, err := stat4p4.NewRuntime(stat4p4.Build(opts))
		if err != nil {
			panic(err)
		}
		if _, err := rt.Bind(stat4p4.Binding{Kind: "freq-dst", Match: stat4p4.AllIPv4(),
			Size: 64, PA: 1, PB: 1}); err != nil {
			panic(err)
		}
		return rt
	}
	exact, strict := mk(false), mk(true)
	rng := rand.New(rand.NewSource(seed))
	vs := traffic.NormalValues(32, 8, 63)

	var varErrs, sdErrs []float64
	for i := 0; i < packets; i++ {
		dst := packet.IP4(vs(rng))
		f := packet.NewUDPFrame(1, dst, 5, 80, 10)
		exact.Sharded().ProcessPacket(uint64(i), 1, f)
		strict.Sharded().ProcessPacket(uint64(i), 1, f)
		if i < packets/10 || i%100 != 0 {
			continue
		}
		em, _ := stat4p4.Read(exact, stat4p4.Moments, 0)
		sm, _ := stat4p4.Read(strict, stat4p4.Moments, 0)
		if em.Var > 0 {
			varErrs = append(varErrs, math.Abs(float64(sm.Var)-float64(em.Var))/float64(em.Var))
		}
		if em.SD > 0 {
			sdErrs = append(sdErrs, math.Abs(float64(sm.SD)-float64(em.SD))/float64(em.SD))
		}
	}
	row := func(name string, errs []float64) StrictAccuracyRow {
		r := StrictAccuracyRow{Metric: name, Samples: len(errs)}
		for _, e := range errs {
			r.MeanRelErr += e
			if e > r.MaxRelErr {
				r.MaxRelErr = e
			}
		}
		if len(errs) > 0 {
			r.MeanRelErr /= float64(len(errs))
		}
		return r
	}
	return []StrictAccuracyRow{
		row("variance (N·Xsumsq − Xsum²)", varErrs),
		row("standard deviation", sdErrs),
	}
}

// StrictDetectionAgreement runs the window spike scenario on both emissions
// across several seeds and reports in how many runs each emission detected
// the spike in its first interval.
func StrictDetectionAgreement(runs int, seed int64) (exactFirst, strictFirst int) {
	for r := 0; r < runs; r++ {
		e := strictSpikeRun(false, seed+int64(r)*17)
		s := strictSpikeRun(true, seed+int64(r)*17)
		if e {
			exactFirst++
		}
		if s {
			strictFirst++
		}
	}
	return exactFirst, strictFirst
}

func strictSpikeRun(strict bool, seed int64) bool {
	const (
		intShift = 20
		capacity = 64
	)
	opts := stat4p4.Options{Slots: 1, Size: 128, Stages: 1}
	if strict {
		opts.Strict = true
		opts.StrictCapShift = 6
	}
	rt, err := stat4p4.NewRuntime(stat4p4.Build(opts))
	if err != nil {
		panic(err)
	}
	if _, err := rt.Bind(stat4p4.Binding{Kind: "window", Match: stat4p4.AllIPv4(),
		IntervalShift: intShift, Capacity: capacity, K: 2}); err != nil {
		panic(err)
	}
	sw := rt.Sharded()
	rng := rand.New(rand.NewSource(seed))
	frame := packet.NewUDPFrame(1, packet.ParseIP4(10, 0, 0, 1), 5, 80, 10)
	send := func(interval, count int) {
		for p := 0; p < count; p++ {
			sw.ProcessPacket(uint64(interval)<<intShift+uint64(p), 1, frame)
		}
	}
	// Fill plus stable phase, then a 4x spike.
	spikeAt := capacity + 20
	for i := 0; i < spikeAt; i++ {
		send(i, 95+rng.Intn(11))
	}
	for len(sw.Digests()) > 0 {
		<-sw.Digests()
	}
	send(spikeAt, 400)
	send(spikeAt+1, 400)
	for len(sw.Digests()) > 0 {
		d := <-sw.Digests()
		if d.Values[4]>>intShift == uint64(spikeAt+1) {
			return true // flagged when the spike interval completed
		}
	}
	return false
}

// FormatStrictAccuracy renders the ablation.
func FormatStrictAccuracy(rows []StrictAccuracyRow, exactFirst, strictFirst, runs int) string {
	out := "strict (multiplication-free) emission vs exact, same packet stream:\n"
	for _, r := range rows {
		out += fmt.Sprintf("  %-28s mean rel err %6.1f%%   max %6.1f%%   (%d samples)\n",
			r.Metric, 100*r.MeanRelErr, 100*r.MaxRelErr, r.Samples)
	}
	out += fmt.Sprintf("  spike detected in first interval: exact %d/%d, strict %d/%d\n",
		exactFirst, runs, strictFirst, runs)
	out += "the one-term shift approximation degrades σ accuracy but preserves the\n"
	out += "order-of-magnitude comparisons the detection checks rely on\n"
	return out
}
