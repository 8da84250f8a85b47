package stat4p4

import (
	"strings"
	"testing"
)

func TestEmitP416Structure(t *testing.T) {
	lib := Build(Options{Slots: 2, Size: 128, Stages: 2, Echo: true})
	src := EmitP416(lib)
	for _, want := range []string{
		"#include <v1model.p4>",
		"#define STAT_COUNTER_NUM  2",
		"#define STAT_COUNTER_SIZE 128",
		"header ethernet_t",
		"struct metadata_t",
		"bit<64> m_xsumsq;",
		"parser Stat4Parser",
		"0x88B5: parse_echo;",
		"register<bit<64>>(256) stat_counters;",
		"register<bit<64>>(2) stat_xsum;",
		"action bind_window(bit<64> p0, bit<64> p1, bit<64> p2, bit<64> p3, bit<64> p4)",
		"action freq_accum()",
		"table bind0",
		"hdr.ipv4.dstAddr : ternary;",
		"table fwd",
		"hdr.ipv4.dstAddr : lpm;",
		"default_action = bind_none();",
		"struct digest1_t",
		"digest<digest1_t>(1, {",
		"meta.tcp_syn = 1;",
		"bind0.apply();",
		"V1Switch(",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("P4-16 output missing %q", want)
		}
	}
	// No raw dotted identifiers may survive sanitisation in code (comments
	// may cite original IR names).
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		for _, banned := range []string{"m.xsum", "stat.counters", "std.ts_ns"} {
			if strings.Contains(line, banned) {
				t.Errorf("unsanitised identifier %q in code line %q", banned, line)
			}
		}
	}
	// Braces balance.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatalf("unbalanced braces: %d vs %d", strings.Count(src, "{"), strings.Count(src, "}"))
	}
	if strings.Count(src, "(") != strings.Count(src, ")") {
		t.Fatalf("unbalanced parens")
	}
}

func TestEmitP416FlowUsesHashExtern(t *testing.T) {
	lib := Build(Options{Slots: 1, Size: 64, Stages: 1, FlowTable: true, FlowTableSize: 64})
	src := EmitP416(lib)
	if !strings.Contains(src, "hash(meta.m_h1, HashAlgorithm.crc32_custom") {
		t.Error("flow probe does not use the hash extern")
	}
	if !strings.Contains(src, "register<bit<64>>(64) stat_ftkeys;") {
		t.Error("flow key register missing")
	}
}

func TestEmitP416StrictHasNoMultiply(t *testing.T) {
	lib := Build(Options{Slots: 1, Size: 64, Stages: 1, Strict: true, StrictCapShift: 4})
	src := EmitP416(lib)
	// Scan action bodies for a runtime multiply (the preamble's
	// timestamp widening constant-multiplies, which hardware can do).
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.Contains(trimmed, " * ") && !strings.Contains(trimmed, "ts_ns") &&
			!strings.HasPrefix(trimmed, "//") {
			t.Errorf("strict emission contains a multiply: %s", trimmed)
		}
	}
}

func TestEmitP416Deterministic(t *testing.T) {
	a := EmitP416(Build(Options{Slots: 2, Size: 64, Stages: 1}))
	b := EmitP416(Build(Options{Slots: 2, Size: 64, Stages: 1}))
	if a != b {
		t.Fatal("P4-16 emission is not deterministic")
	}
}
