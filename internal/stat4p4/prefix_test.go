package stat4p4

import (
	"testing"

	"stat4/internal/packet"
)

// TestParsePrefixStrict: outside input takes exactly four decimal octets and
// an optional /0../32 — trailing junk, a fifth octet, a signed or missing
// length are errors, not silently a /32.
func TestParsePrefixStrict(t *testing.T) {
	for _, c := range []struct {
		in   string
		want string // "" rejects
	}{
		{"10.0.0.1", "10.0.0.1/32"},
		{"10.0.0.1/24", "10.0.0.0/24"},
		{"0.0.0.0/0", "0.0.0.0/0"},
		{"255.255.255.255/32", "255.255.255.255/32"},
		{"010.0.0.1/8", "10.0.0.0/8"},
		{"10.0.0.1junk", ""},
		{"1.2.3.4.5", ""},
		{"10.0.0.1junk/24", ""},
		{"10.0.0.0/+8", ""},
		{"", ""},
		{"10.0.0.0/", ""},
		{"10.0.0.0/33", ""},
		{"10.0.0.0/008", ""},
		{"256.0.0.0", ""},
		{"1.2.3", ""},
		{"1..2.3", ""},
		{"1.2.3.4/8/8", ""},
		{" 1.2.3.4", ""},
	} {
		p, err := parsePrefix(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("parsePrefix(%q) = %v, want an error", c.in, p)
			}
			continue
		}
		if err != nil || p.String() != c.want {
			t.Errorf("parsePrefix(%q) = %v, %v, want %s", c.in, p, err, c.want)
		}
	}
}

// TestStrictPrefixWhereInputEnters: a binding's match, an app-config route and
// a track's base all refuse what parsePrefix refuses.
func TestStrictPrefixWhereInputEnters(t *testing.T) {
	rt, err := NewRuntime(Build(Options{Slots: 1, Size: 256, Stages: 1}))
	if err != nil {
		t.Fatal(err)
	}
	const bad = "10.0.0.1junk/24"
	if _, err := rt.Bind(Binding{Kind: "freq-proto", Match: Match{DstPrefix: bad}, Size: 256, PA: 1, PB: 1}); err == nil {
		t.Error("Bind took a bad dst_prefix")
	}
	cfg := &AppConfig{Options: rt.lib.Opts, Routes: []RouteConfig{{Prefix: bad, Port: 1}}}
	if _, err := cfg.Install(rt); err == nil {
		t.Error("Install took a bad route prefix")
	}
	p := TrackDefaults
	p.Base = "10.0.0.0.0"
	if _, err := BindTrack(rt, "dst24", p); err == nil {
		t.Error("BindTrack took a bad base")
	}
}

// FuzzParsePrefix: parsePrefix never panics, and what it accepts round-trips
// through String to the same prefix.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{"10.0.0.1", "10.0.0.0/8", "1.2.3.4.5", "10.0.0.1junk", "10.0.0.0/+8", "", "255.255.255.255/32"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parsePrefix(s)
		if err != nil {
			return
		}
		q, err := parsePrefix(p.String())
		if err != nil || q != p {
			t.Fatalf("%q → %v → %q → %v, %v", s, p, p.String(), q, err)
		}
		if p != packet.NewPrefix(p.Addr, p.Len) {
			t.Fatalf("%q → %v keeps host bits", s, p)
		}
	})
}
