package stat4p4

import (
	"errors"
	"fmt"

	"stat4/internal/p4"
	"stat4/internal/packet"
)

// Runtime is the controller-side handle on a switch running the emitted
// Stat4 program: it installs and retunes binding-table entries, reads the
// tracked distributions out of the registers, and exposes the digest stream.
// All methods are safe to call while the data plane processes packets.
type Runtime struct {
	typedBinds
	lib *Library
	sw  *p4.Switch
}

// NewRuntime instantiates a switch for the library's program, installing the
// echo deparser when the library was built with Echo.
func NewRuntime(lib *Library) (*Runtime, error) {
	sw, err := p4.NewSwitch(lib.Prog, lib.Std, lib.Opts.DigestBuf)
	if err != nil {
		return nil, err
	}
	return newRuntime(lib, sw), nil
}

// newRuntime wraps one switch (a serial one, or a shard) in its control
// handle.
func newRuntime(lib *Library, sw *p4.Switch) *Runtime {
	if lib.Opts.Echo {
		sw.SetDeparser(EchoDeparser{lib: lib})
	}
	rt := &Runtime{lib: lib, sw: sw}
	rt.bind = rt.Bind
	return rt
}

// Switch returns the underlying data plane.
func (rt *Runtime) Switch() *p4.Switch { return rt.sw }

// Library returns the emitted library.
func (rt *Runtime) Library() *Library { return rt.lib }

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
		pfx, err := packet.ParsePrefix(m.DstPrefix)
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

// Errors returned by binding operations.
var (
	ErrBadSlot  = errors.New("stat4p4: slot out of range")
	ErrBadStage = errors.New("stat4p4: stage out of range")
	ErrBadSize  = errors.New("stat4p4: distribution exceeds STAT_COUNTER_SIZE")
	ErrStrict   = errors.New("stat4p4: parameter not representable in strict mode")
)

// Bind installs one binding-table entry: Lower, then one table insert.
func (rt *Runtime) Bind(b Binding) (p4.EntryID, error) {
	low, err := rt.lib.Lower(b)
	if err != nil {
		return 0, err
	}
	return rt.insert(low)
}

func (rt *Runtime) insert(low Lowered) (p4.EntryID, error) {
	return rt.sw.InsertEntry(low.Table, low.Keys, low.Priority, low.Action, low.Args)
}

// AddRoute installs an LPM forwarding route: IPv4 packets into the prefix
// leave on the given port.
func (rt *Runtime) AddRoute(prefix packet.Prefix, port uint16) (p4.EntryID, error) {
	return rt.sw.InsertEntry(FwdTable,
		[]p4.MatchValue{{Value: uint64(prefix.Addr), PrefixLen: prefix.Len}},
		0, "fwd_set_port", []uint64{uint64(port)})
}

// AddDropRoute installs an LPM blackhole route — the paper's "locally react
// to anomalies (e.g., rate limiting some flows)" in its bluntest form.
func (rt *Runtime) AddDropRoute(prefix packet.Prefix) (p4.EntryID, error) {
	return rt.sw.InsertEntry(FwdTable,
		[]p4.MatchValue{{Value: uint64(prefix.Addr), PrefixLen: prefix.Len}},
		0, "fwd_drop", nil)
}

// DelRoute removes a forwarding entry.
func (rt *Runtime) DelRoute(id p4.EntryID) error {
	return rt.sw.DeleteEntry(FwdTable, id)
}

// Unbind removes a binding entry.
func (rt *Runtime) Unbind(stage int, id p4.EntryID) error {
	if stage < 0 || stage >= rt.lib.Opts.Stages {
		return fmt.Errorf("%w: %d", ErrBadStage, stage)
	}
	return rt.sw.DeleteEntry(rt.lib.BindTables[stage], id)
}

// ResetSlot zeroes everything the program keeps for a slot so it can be
// rebound to a new value of interest. Every register the emitter declares is
// slot-striped (Cells == Slots × stride), so the slot's state is one stripe
// of each.
func (rt *Runtime) ResetSlot(slot int) error {
	if slot < 0 || slot >= rt.lib.Opts.Slots {
		return fmt.Errorf("%w: %d", ErrBadSlot, slot)
	}
	for _, rd := range rt.lib.Prog.Registers {
		reg, err := rt.sw.Register(rd.Name)
		if err != nil {
			return err
		}
		stride := rd.Cells / rt.lib.Opts.Slots
		for i := slot * stride; i < (slot+1)*stride; i++ {
			if err := reg.WriteCell(i, 0); err != nil {
				return err
			}
		}
	}
	return nil
}
