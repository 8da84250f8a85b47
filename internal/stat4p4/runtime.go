package stat4p4

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// Runtime is the controller-side handle on a deployment of the emitted Stat4
// program: n ≥ 1 replicas ("shards") behind p4.ShardedSwitch's flow-hash
// dispatcher, a single switch being n = 1. It installs and retunes
// binding-table entries, reads the tracked distributions out of the
// registers, and exposes the digest stream. Every control operation is
// applied to every shard, so the shards stay configured identically — the
// contract MergedSnapshot's entry view and the dispatcher's correctness both
// rest on. All methods are safe to call while the data plane processes
// packets.
type Runtime struct {
	lib *Library
	ss  *p4.ShardedSwitch
	// slots records what the last Bind put on each slot: FreqSlots' notes
	// and the Moments view's merge rule both read it.
	slots map[int]Lowered

	// This blank field holds no state. It keeps packet.Prefix's type, and
	// with it the Prefix methods, linked into any binary that converts a
	// *Runtime to an interface, as the benchmark does. That code sits ahead
	// of package p4, so dropping it would move the per-packet datapath;
	// `make layout` checks that it has not moved.
	_ packet.Prefix
}

// ShardedRuntime is Runtime under the name it had while a sharded runtime
// was a separate type. It remains only because the benchmark under bench/
// still spells it; it goes together with that benchmark's typed binder.
type ShardedRuntime = Runtime

// NewRuntime instantiates a one-shard deployment of the library's program.
func NewRuntime(lib *Library) (*Runtime, error) { return NewShardedRuntime(lib, 1) }

// NewShardedRuntime instantiates n shards of the library's program,
// installing the echo deparser on each when the library was built with Echo.
func NewShardedRuntime(lib *Library, n int) (*Runtime, error) {
	ss, err := p4.NewShardedSwitch(lib.Prog, lib.Std, n, lib.Opts.DigestBuf)
	if err != nil {
		return nil, err
	}
	if lib.Opts.Echo {
		for i := 0; i < n; i++ {
			ss.Shard(i).SetDeparser(EchoDeparser{lib: lib})
		}
	}
	return &Runtime{lib: lib, ss: ss, slots: make(map[int]Lowered)}, nil
}

// Sharded returns the data plane. Traffic goes through it: a shard stages
// its digests until a ShardedSwitch call forwards them to the mailbox (or
// the sink), so frames driven through a bare shard never raise an alert
// anyone sees.
func (rt *Runtime) Sharded() *p4.ShardedSwitch { return rt.ss }

// Switch returns the one shard of a one-shard runtime, for reading its
// registers and attaching observers, not for driving traffic (see Sharded).
// It panics on a runtime of more than one shard.
func (rt *Runtime) Switch() *p4.Switch {
	if rt.ss.NumShards() != 1 {
		panic(fmt.Sprintf("stat4p4: Switch on a %d-shard runtime", rt.ss.NumShards()))
	}
	return rt.ss.Shard(0)
}

// Library returns the emitted library.
func (rt *Runtime) Library() *Library { return rt.lib }

// NumShards returns the replica count.
func (rt *Runtime) NumShards() int { return rt.ss.NumShards() }

// Close stops the shard workers.
func (rt *Runtime) Close() { rt.ss.Close() }

// Match selects which packets a binding entry applies to. Zero-value fields
// are wildcarded.
type Match struct {
	Echo      bool   `json:"echo,omitempty"`       // echo frames only
	IPv4      bool   `json:"ipv4,omitempty"`       // require IPv4
	DstPrefix string `json:"dst_prefix,omitempty"` // CIDR on the IPv4 destination; implies IPv4
	SynOnly   bool   `json:"syn_only,omitempty"`   // only connection-attempt SYNs
	Priority  int    `json:"priority,omitempty"`   // ternary priority; higher wins
}

// EchoOnly matches echo frames.
func EchoOnly() Match { return Match{Echo: true} }

// AllIPv4 matches every IPv4 packet.
func AllIPv4() Match { return Match{IPv4: true} }

// DstIn matches IPv4 packets into a destination prefix.
func DstIn(p packet.Prefix) Match { return Match{IPv4: true, DstPrefix: p.String()} }

// SynTo matches connection-attempt SYNs into a destination prefix.
func SynTo(p packet.Prefix) Match { return Match{IPv4: true, DstPrefix: p.String(), SynOnly: true} }

// keys lowers the match to the binding tables' four ternary keys:
// [eth.type, ipv4.valid, ipv4.dst, tcp.syn].
func (m Match) keys() ([]p4.MatchValue, error) {
	mv := make([]p4.MatchValue, 4)
	if m.Echo {
		mv[0] = p4.MatchValue{Value: uint64(packet.EtherTypeEcho), Mask: 0xffff}
	}
	if m.DstPrefix != "" {
		pfx, err := parsePrefix(m.DstPrefix)
		if err != nil {
			return nil, err
		}
		m.IPv4 = true
		mask := uint64(0)
		if pfx.Len > 0 {
			mask = (^uint64(0) << (32 - uint(pfx.Len))) & 0xffffffff
		}
		mv[2] = p4.MatchValue{Value: uint64(pfx.Addr), Mask: mask}
	}
	if m.IPv4 {
		mv[1] = p4.MatchValue{Value: 1, Mask: 1}
	}
	if m.SynOnly {
		mv[3] = p4.MatchValue{Value: 1, Mask: 1}
	}
	return mv, nil
}

// parsePrefix parses an IPv4 prefix from outside input (a /bind match, an
// app-config route, a -base-prefix): four dot-separated decimal octets of one
// to three digits each, then optionally "/" and a length of one or two
// digits up to 32, and nothing else. A bare address is a /32.
func parsePrefix(s string) (packet.Prefix, error) {
	bad := fmt.Errorf("stat4p4: bad IPv4 prefix %q", s)
	addr, length, slash := s, "", strings.IndexByte(s, '/')
	if slash >= 0 {
		addr, length = s[:slash], s[slash+1:]
		if n, ok := digits(length, 2); !ok || n > 32 {
			return packet.Prefix{}, bad
		}
	}
	octets := strings.Split(addr, ".")
	if len(octets) != 4 {
		return packet.Prefix{}, bad
	}
	for _, o := range octets {
		if n, ok := digits(o, 3); !ok || n > 255 {
			return packet.Prefix{}, bad
		}
	}
	return packet.ParsePrefix(s)
}

// digits reads s as a decimal of 1 to most digits.
func digits(s string, most int) (int, bool) {
	if len(s) == 0 || len(s) > most {
		return 0, false
	}
	n := 0
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Errors returned by binding operations.
var (
	ErrBadSlot  = errors.New("stat4p4: slot out of range")
	ErrBadStage = errors.New("stat4p4: stage out of range")
	ErrBadSize  = errors.New("stat4p4: distribution exceeds STAT_COUNTER_SIZE")
	ErrStrict   = errors.New("stat4p4: parameter not representable in strict mode")
)

// each applies one control-plane operation to every shard, asserting the
// shards hand back the same entry ID — they must, since they are driven
// identically from birth; a divergence means the identical-configuration
// contract was broken and sharded state can no longer be trusted.
func (rt *Runtime) each(f func(sw *p4.Switch) (p4.EntryID, error)) (p4.EntryID, error) {
	var id p4.EntryID
	for i := 0; i < rt.ss.NumShards(); i++ {
		got, err := f(rt.ss.Shard(i))
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			id = got
		} else if got != id {
			return 0, fmt.Errorf("stat4p4: shard %d assigned entry %d, shard 0 assigned %d — shards configured divergently", i, got, id)
		}
	}
	return id, nil
}

// Bind lowers the binding once and inserts the resulting entry on every
// shard, then records it as the slot's binding, replacing whatever an
// earlier Bind left there.
func (rt *Runtime) Bind(b Binding) (p4.EntryID, error) {
	low, err := rt.lib.Lower(b)
	if err != nil {
		return 0, err
	}
	id, err := rt.each(func(sw *p4.Switch) (p4.EntryID, error) {
		return sw.InsertEntry(low.Table, low.Keys, low.Priority, low.Action, low.Args)
	})
	if err == nil {
		rt.slots[b.Slot] = low
	}
	return id, err
}

// AddRoute installs an LPM forwarding route: IPv4 packets into the prefix
// leave on the given port.
func (rt *Runtime) AddRoute(prefix packet.Prefix, port uint16) (p4.EntryID, error) {
	return rt.route(prefix, "fwd_set_port", []uint64{uint64(port)})
}

// AddDropRoute installs an LPM blackhole route — the paper's "locally react
// to anomalies (e.g., rate limiting some flows)" in its bluntest form.
func (rt *Runtime) AddDropRoute(prefix packet.Prefix) (p4.EntryID, error) {
	return rt.route(prefix, "fwd_drop", nil)
}

func (rt *Runtime) route(prefix packet.Prefix, action string, args []uint64) (p4.EntryID, error) {
	return rt.each(func(sw *p4.Switch) (p4.EntryID, error) {
		return sw.InsertEntry(FwdTable, []p4.MatchValue{{Value: uint64(prefix.Addr), PrefixLen: prefix.Len}}, 0, action, args)
	})
}

// Unbind removes a binding entry.
func (rt *Runtime) Unbind(stage int, id p4.EntryID) error {
	if stage < 0 || stage >= rt.lib.Opts.Stages {
		return fmt.Errorf("%w: %d", ErrBadStage, stage)
	}
	_, err := rt.each(func(sw *p4.Switch) (p4.EntryID, error) {
		return 0, sw.DeleteEntry(rt.lib.BindTables[stage], id)
	})
	return err
}

// ResetSlot zeroes everything the program keeps for a slot so it can be
// rebound to a new value of interest, and forgets the slot's recorded
// binding. Every register the emitter declares is slot-striped (Cells ==
// Slots × stride), so the slot's state is one stripe of each.
func (rt *Runtime) ResetSlot(slot int) error {
	if slot < 0 || slot >= rt.lib.Opts.Slots {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	_, err := rt.each(func(sw *p4.Switch) (p4.EntryID, error) {
		for _, rd := range rt.lib.Prog.Registers {
			reg, err := sw.Register(rd.Name)
			if err != nil {
				return 0, err
			}
			stride := rd.Cells / rt.lib.Opts.Slots
			for i := slot * stride; i < (slot+1)*stride; i++ {
				if err := reg.WriteCell(i, 0); err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	})
	if err == nil {
		delete(rt.slots, slot)
	}
	return err
}

// FreqSlots returns the notes of the slots whose binding left one, in slot
// order — the slot list MergedSnapshot canonicalises.
func (rt *Runtime) FreqSlots() []SlotBinding {
	var out []SlotBinding
	for _, low := range rt.slots {
		if low.Note != nil {
			out = append(out, *low.Note)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// MergedFlows is the entries of Read(rt, Flows, slot).
func (rt *Runtime) MergedFlows(slot int) ([]Entry, error) {
	fs, err := Read(rt, Flows, slot)
	return fs.Entries, err
}

// MergedSnapshot merges the shards' registers (MergeSum cells add,
// MergeDerived cells zero) and canonicalises the result over the recorded
// frequency slots. At any shard count the result is byte-identical to
// CanonicalizeSnapshot applied to a one-shard runtime that processed the
// same packets, which is exactly what the sharded differential tests assert.
func (rt *Runtime) MergedSnapshot() *p4.Snapshot {
	snap := rt.ss.MergedSnapshot()
	rt.lib.CanonicalizeSnapshot(snap, rt.FreqSlots())
	return snap
}
