package stat4p4

import (
	"encoding/json"
	"fmt"
	"io"

	"stat4/internal/p4"
)

// AppConfig is a declarative Stat4 application: the emitted program's sizing
// plus the routes and binding-table entries a controller installs at startup.
// It is the file-format face of the paper's Figure 4 — Table 1's use cases
// each fit in a few JSON lines, and retuning is editing the file and
// re-applying.
type AppConfig struct {
	// Options sizes the emitted program. Zero values take the library
	// defaults.
	Options Options `json:"options"`

	Routes   []RouteConfig `json:"routes,omitempty"`
	Bindings []Binding     `json:"bindings"`
}

// RouteConfig is one forwarding entry.
type RouteConfig struct {
	Prefix string `json:"prefix"` // CIDR; bare addresses are /32
	Port   uint16 `json:"port"`
	Drop   bool   `json:"drop,omitempty"` // blackhole instead of forwarding
}

// LoadAppConfig decodes and sanity-checks a JSON application description.
func LoadAppConfig(r io.Reader) (*AppConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg AppConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("stat4p4: parse app config: %w", err)
	}
	if len(cfg.Bindings) == 0 {
		return nil, fmt.Errorf("stat4p4: app config has no bindings")
	}
	for i := range cfg.Bindings {
		b := &cfg.Bindings[i]
		if b.PA == 0 && b.PB == 0 {
			b.PA, b.PB = 1, 1
		}
	}
	return &cfg, nil
}

// Install installs every route and binding into a runtime of a library built
// from cfg.Options, returning the binding entry IDs in config order. A
// binding with no size covers the whole slot.
func (cfg *AppConfig) Install(rt *Runtime) ([]p4.EntryID, error) {
	for _, r := range cfg.Routes {
		pfx, err := parsePrefix(r.Prefix)
		if err != nil {
			return nil, err
		}
		if r.Drop {
			_, err = rt.AddDropRoute(pfx)
		} else {
			_, err = rt.AddRoute(pfx, r.Port)
		}
		if err != nil {
			return nil, fmt.Errorf("stat4p4: route %q: %w", r.Prefix, err)
		}
	}
	ids := make([]p4.EntryID, 0, len(cfg.Bindings))
	for i, b := range cfg.Bindings {
		if b.Size == 0 {
			b.Size = rt.lib.Opts.Size
		}
		id, err := rt.Bind(b)
		if err != nil {
			return nil, fmt.Errorf("stat4p4: binding %d (%s): %w", i, b.Kind, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}
