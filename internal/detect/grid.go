package detect

import (
	"fmt"

	"stat4/internal/traffic"
)

// Grid spans the quality matrix: every scenario × config × shard count.
type Grid struct {
	Scale     float64
	Seed      int64
	Scenarios []traffic.Scenario
	Configs   []Config
	Shards    []int
}

// DefaultGrid is the shipping matrix: the full scenario registry against the
// full config registry at 1 and 4 shards.
func DefaultGrid(scale float64) Grid {
	return Grid{
		Scale:     scale,
		Seed:      1,
		Scenarios: traffic.Registry(scale),
		Configs:   Configs(),
		Shards:    []int{1, 4},
	}
}

// Cells expands the grid in deterministic scenario-major order.
func (g Grid) Cells() []Cell {
	var cells []Cell
	for _, sc := range g.Scenarios {
		for _, cfg := range g.Configs {
			for _, sh := range g.Shards {
				cells = append(cells, Cell{Scenario: sc, Config: cfg, Shards: sh, Seed: g.Seed})
			}
		}
	}
	return cells
}

// RunGrid scores every cell in order. progress (optional) is called before
// each cell runs.
func RunGrid(g Grid, progress func(i, n int, c Cell)) ([]Result, error) {
	cells := g.Cells()
	results := make([]Result, 0, len(cells))
	for i, c := range cells {
		if progress != nil {
			progress(i, len(cells), c)
		}
		r, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("cell %s/%s/%d: %w",
				c.Scenario.Name, c.Config.Name, c.Shards, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// DominanceViolations checks the pathological contract on a result set:
// on every cell of a scenario the track is expected to catch, a
// pathological config must score strictly below its healthy twin. Returns
// one message per violated pairing (empty = contract holds).
func DominanceViolations(results []Result) []string {
	healthy := make(map[string]Result)
	for _, r := range results {
		if !r.Pathological {
			healthy[r.Key()] = r
		}
	}
	var violations []string
	for _, r := range results {
		if !r.Pathological || !r.Detectable {
			continue
		}
		twinKey := fmt.Sprintf("%s/%s/%d/%s", r.Scenario, r.HealthyTwin, r.Shards, r.Sched)
		twin, ok := healthy[twinKey]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: healthy twin %s missing from results", r.Key(), r.HealthyTwin))
			continue
		}
		if !(r.Quality < twin.Quality) {
			violations = append(violations, fmt.Sprintf(
				"%s: pathological quality %.4f not strictly below healthy %s quality %.4f",
				r.Key(), r.Quality, twin.Config, twin.Quality))
		}
	}
	return violations
}
