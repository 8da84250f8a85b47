// Package controller implements the control-plane side of the case study
// (Section 4): it consumes anomaly digests pushed by the switch and drills
// down into traffic spikes by retuning the switch's binding tables at
// runtime — first from whole-prefix rate monitoring to per-/24 counting,
// then from the hot /24 to per-destination counting — without recompiling
// the data plane.
package controller

import (
	"fmt"

	"stat4/internal/p4"
	"stat4/internal/packet"
	"stat4/internal/stat4p4"
	"stat4/internal/telemetry"
)

// Scheduler is the slice of the event loop the controller needs: reading
// virtual time and scheduling delayed work (its messages to the switch take
// a link round trip to act).
type Scheduler interface {
	Now() uint64
	After(d uint64, fn func())
}

// Phase tracks drill-down progress.
type Phase int

// Drill-down phases.
const (
	PhaseMonitoring   Phase = iota // watching the /8 rate window
	PhaseLocateSubnet              // per-/24 binding installed
	PhaseLocateHost                // per-host binding installed
	PhaseDone                      // destination pinpointed
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMonitoring:
		return "monitoring"
	case PhaseLocateSubnet:
		return "locate-subnet"
	case PhaseLocateHost:
		return "locate-host"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Config wires a DrillDown controller to a switch runtime.
type Config struct {
	RT    *stat4p4.Runtime
	Sched Scheduler

	// CtrlDelay is the one-way controller→switch latency; binding-table
	// changes take effect after it.
	CtrlDelay uint64

	// Monitored is the coarse prefix whose aggregate rate the window
	// tracks (the case study's /8).
	Monitored packet.Prefix

	// WindowSlot is the distribution slot of the rate window (stage 0).
	WindowSlot int
	// DrillStage and DrillSlot host the drill-down distribution.
	DrillStage int
	DrillSlot  int

	// SubnetBits is the drill-down granularity (24 → /24 subnets).
	SubnetBits int
	// SubnetDomain is the counter domain for the per-subnet distribution
	// (e.g. 256 indexes the third octet under a /16-spanning deployment).
	SubnetDomain int
	// K is the σ multiplier of the imbalance checks.
	K uint64
	// Warmup ignores alerts from a freshly (re)bound distribution for
	// this long, while its moments stabilise.
	Warmup uint64
	// MonitorWarmup ignores rate-window alerts before this absolute time,
	// covering the window's fill phase when its variance estimate is still
	// noisy.
	MonitorWarmup uint64
	// Mitigate blackholes the identified destination once the drill-down
	// completes — the paper's "locally react to anomalies" as a
	// remotely-triggered blackhole. The route install pays CtrlDelay like
	// every other control-plane action.
	Mitigate bool

	// Timeline, when set, records every phase transition as (virtual ns,
	// code): the Phase value entered, or TimelineMitigated when the
	// blackhole takes effect. It is the integer twin of the human-readable
	// Log, exposed through the telemetry snapshot.
	Timeline *telemetry.Timeline
}

// TimelineMitigated is the Timeline code recorded when mitigation takes
// effect (phase transitions record the Phase value itself).
const TimelineMitigated = 100

// Result is what the drill-down produced, with controller-side timestamps.
type Result struct {
	DetectedSwitchTs uint64 // switch timestamp inside the anomalous interval
	DetectedAt       uint64 // digest arrival at the controller
	SubnetAt         uint64 // hot /24 identified
	HostAt           uint64 // destination identified
	MitigatedAt      uint64 // blackhole in effect (0 unless Mitigate)
	Subnet           packet.Prefix
	Host             packet.IP4
}

// DrillDown is the case-study controller. HandleDigest must be invoked from
// the simulation loop (single-threaded).
type DrillDown struct {
	cfg   Config
	phase Phase
	res   Result

	bindID     p4.EntryID
	bindAt     uint64 // when the current drill binding took effect
	subnetBase uint64 // value base of the per-subnet binding
	hostBase   uint64 // value base of the per-host binding

	// Log records phase transitions for the case-study binary.
	Log []string
}

// NewDrillDown returns a controller in the monitoring phase. The rate
// window and forwarding are assumed already bound by the operator; the
// controller owns the drill-down stage.
func NewDrillDown(cfg Config) *DrillDown {
	if cfg.K == 0 {
		cfg.K = 2
	}
	if cfg.SubnetDomain == 0 {
		cfg.SubnetDomain = 256
	}
	return &DrillDown{cfg: cfg, phase: PhaseMonitoring}
}

// Phase returns the current phase.
func (d *DrillDown) Phase() Phase { return d.phase }

// Result returns the timestamps and identifications so far.
func (d *DrillDown) Result() Result { return d.res }

func (d *DrillDown) logf(format string, args ...any) {
	d.Log = append(d.Log, fmt.Sprintf("[%10dns] %s", d.cfg.Sched.Now(), fmt.Sprintf(format, args...)))
}

// mark records a timeline code at the current virtual time.
func (d *DrillDown) mark(code uint64) {
	if d.cfg.Timeline != nil {
		d.cfg.Timeline.Record(d.cfg.Sched.Now(), code)
	}
}

// HandleDigest advances the drill-down state machine on each switch alert.
func (d *DrillDown) HandleDigest(now uint64, dg p4.Digest) {
	if dg.ID != stat4p4.DigestAnomaly || len(dg.Values) < 5 {
		return
	}
	slot := int(dg.Values[0])
	// Gate on the digest's data-plane timestamp, not its arrival time:
	// alerts emitted by a superseded binding can still be in flight on the
	// control channel when the new binding takes effect.
	switchTs := dg.Values[4]
	switch {
	case d.phase == PhaseMonitoring && slot == d.cfg.WindowSlot:
		if switchTs < d.cfg.MonitorWarmup {
			return
		}
		d.res.DetectedSwitchTs = dg.Values[4]
		d.res.DetectedAt = now
		d.phase = PhaseLocateSubnet
		d.mark(uint64(PhaseLocateSubnet))
		d.logf("traffic-spike alert: interval value %d > threshold %d; installing per-/%d counting",
			dg.Values[1], dg.Values[3], d.cfg.SubnetBits)
		d.installSubnetBinding()

	case d.phase == PhaseLocateSubnet && slot == d.cfg.DrillSlot:
		if switchTs < d.bindAt+d.cfg.Warmup {
			return
		}
		idx := dg.Values[1]
		subnetAddr := packet.IP4((d.subnetBase + idx) << uint(32-d.cfg.SubnetBits))
		d.res.Subnet = packet.NewPrefix(subnetAddr, d.cfg.SubnetBits)
		d.res.SubnetAt = now
		d.phase = PhaseLocateHost
		d.mark(uint64(PhaseLocateHost))
		d.logf("traffic-imbalance alert: hot subnet %s; refining to per-destination counting", d.res.Subnet)
		d.installHostBinding()

	case d.phase == PhaseLocateHost && slot == d.cfg.DrillSlot:
		if switchTs < d.bindAt+d.cfg.Warmup {
			return
		}
		idx := dg.Values[1]
		d.res.Host = packet.IP4(d.hostBase + idx)
		d.res.HostAt = now
		d.phase = PhaseDone
		d.mark(uint64(PhaseDone))
		d.logf("destination pinpointed: %s", d.res.Host)
		if d.cfg.Mitigate {
			host := d.res.Host
			d.cfg.Sched.After(d.cfg.CtrlDelay, func() {
				if _, err := d.cfg.RT.AddDropRoute(packet.NewPrefix(host, 32)); err != nil {
					d.logf("mitigation failed: %v", err)
					return
				}
				d.res.MitigatedAt = d.cfg.Sched.Now()
				d.mark(TimelineMitigated)
				d.logf("mitigation active: traffic to %s blackholed", host)
			})
		}
	}
}

// installSubnetBinding asks the switch (after the control-link delay) to
// count packets per subnet across the monitored prefix. Until the binding
// takes effect, bindAt is pinned to infinity so in-flight digests from any
// previous binding are discarded.
func (d *DrillDown) installSubnetBinding() {
	shift := uint(32 - d.cfg.SubnetBits)
	d.subnetBase = uint64(d.cfg.Monitored.Addr) >> shift
	d.bindAt = ^uint64(0) - d.cfg.Warmup
	d.cfg.Sched.After(d.cfg.CtrlDelay, func() {
		id, err := d.cfg.RT.Bind(stat4p4.Binding{Kind: "freq-dst", Stage: d.cfg.DrillStage, Slot: d.cfg.DrillSlot, Match: stat4p4.DstIn(d.cfg.Monitored),
			Shift: shift, Base: d.subnetBase, Size: d.cfg.SubnetDomain, PA: 1, PB: 1, K: d.cfg.K})
		if err != nil {
			d.logf("subnet binding failed: %v", err)
			return
		}
		d.bindID = id
		d.bindAt = d.cfg.Sched.Now()
	})
}

// installHostBinding retargets the drill slot at destinations inside the hot
// subnet, reusing the same stage — the paper's "modifies the previously
// added entry".
func (d *DrillDown) installHostBinding() {
	subnet := d.res.Subnet
	d.hostBase = uint64(subnet.Addr)
	d.bindAt = ^uint64(0) - d.cfg.Warmup
	d.cfg.Sched.After(d.cfg.CtrlDelay, func() {
		if err := d.cfg.RT.Unbind(d.cfg.DrillStage, d.bindID); err != nil {
			d.logf("unbind failed: %v", err)
			return
		}
		if err := d.cfg.RT.ResetSlot(d.cfg.DrillSlot); err != nil {
			d.logf("slot reset failed: %v", err)
			return
		}
		hostsDomain := 1 << uint(32-subnet.Len)
		if hostsDomain > d.cfg.RT.Library().Opts.Size {
			hostsDomain = d.cfg.RT.Library().Opts.Size
		}
		id, err := d.cfg.RT.Bind(stat4p4.Binding{Kind: "freq-dst", Stage: d.cfg.DrillStage, Slot: d.cfg.DrillSlot, Match: stat4p4.DstIn(subnet),
			Base: d.hostBase, Size: hostsDomain, PA: 1, PB: 1, K: d.cfg.K})
		if err != nil {
			d.logf("host binding failed: %v", err)
			return
		}
		d.bindID = id
		d.bindAt = d.cfg.Sched.Now()
	})
}
