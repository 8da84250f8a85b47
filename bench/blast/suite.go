package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// report is the suite's JSON artefact: what ran, where, and every metric of
// every workload. -compare reads two of them.
type report struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Transport  string  `json:"transport"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Started    string  `json:"started"`

	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string           `json:"name"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
}

// runSuite runs every workload, each trace mode in a child process of its
// own so every run starts from a fresh heap and owns its peak RSS, and writes
// one report.
func runSuite(seed int64, seconds float64, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{
		Seed: seed, Seconds: seconds, Transport: transport,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Started: time.Now().UTC().Format(time.RFC3339),
	}
	ok := true
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, Correct: true}
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", out, fmt.Sprintf("-quick=%t", quick),
			}
			res, err := runChild(self, args)
			if err != nil {
				return fmt.Errorf("%s trace %d: %w", w.name, trace, err)
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
			fmt.Println()
		}
		ok = ok && wr.Correct && wr.Failed == 0
		rep.Workloads = append(rep.Workloads, wr)
	}

	fmt.Println("summary: end-to-end metrics (bound = allowed worsening before a change counts as a regression)")
	fmt.Printf("%-20s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", d.Name)
	}
	fmt.Printf(" %s\n", "failed/attempted")
	for _, wr := range rep.Workloads {
		fmt.Printf("%-20s", wr.Name)
		for _, d := range endToEnd {
			fmt.Printf(" %16.6g", wr.EndToEnd[d.Name].Value)
		}
		fmt.Printf(" %d/%d\n", wr.Failed, wr.Attempted)
	}
	fmt.Printf("%-20s", "unit, bound")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", fmt.Sprintf("%s, %.0f%%", d.Unit, 100*d.Bound))
	}
	fmt.Println()

	path := filepath.Join(out, "blast.json")
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report: %s (traces beside it)\n", path)
	if !ok {
		return fmt.Errorf("a workload failed verification or lost frames")
	}
	return nil
}

// runChild runs one workload run, passes its report through, and parses the
// result object off its last line.
func runChild(self string, args []string) (result, error) {
	var res result
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n') + 1
	io.WriteString(os.Stdout, text[:cut])
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal([]byte(text[cut:]), &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// commit names the checkout, when there is a git checkout to name.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareReports prints, per workload and metric, B against A: end-to-end
// metrics against their bounds, per-layer metrics for the record. It fails if
// any end-to-end metric worsened past its bound or B lost correctness.
func compareReports(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two report files")
	}
	var reps [2]report
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &reps[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := reps[0], reps[1]
	fmt.Fprintf(w, "A: %s commit %s seed %d, %gs runs\nB: %s commit %s seed %d, %gs runs\n",
		paths[0], a.Commit, a.Seed, a.Seconds, paths[1], b.Commit, b.Seed, b.Seconds)
	byName := make(map[string]workloadReport, len(a.Workloads))
	for _, wr := range a.Workloads {
		byName[wr.Name] = wr
	}
	var breaches []string
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: not in A\n", wb.Name)
			continue
		}
		fmt.Fprintf(w, "\n%s\n%-32s %14s %14s %9s %7s\n", wb.Name, "metric", "A", "B", "worse by", "bound")
		if !wb.Correct || wb.Failed > 0 {
			breaches = append(breaches, fmt.Sprintf("%s: B is incorrect or failed %d operations", wb.Name, wb.Failed))
		}
		row := func(d metricDef, va, vb map[string]value) {
			x, okA := va[d.Name]
			y, okB := vb[d.Name]
			if !okA || !okB {
				return
			}
			// worse is the signed share of A by which B is worse.
			worse := 0.0
			if x.Value != 0 {
				worse = (y.Value - x.Value) / x.Value
			}
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Bound > 0 {
				verdict = fmt.Sprintf("%6.0f%%", 100*d.Bound)
				if worse > d.Bound {
					verdict += "  BREACH"
					breaches = append(breaches, fmt.Sprintf("%s %s: %.1f%% worse, bound %.0f%%", wb.Name, d.Name, 100*worse, 100*d.Bound))
				}
			}
			fmt.Fprintf(w, "%-32s %14.6g %14.6g %+8.1f%% %s\n", d.Name, x.Value, y.Value, 100*worse, verdict)
		}
		for _, d := range endToEnd {
			row(d, wa.EndToEnd, wb.EndToEnd)
		}
		for _, d := range perLayer {
			row(d, wa.PerLayer, wb.PerLayer)
		}
	}
	if len(breaches) > 0 {
		fmt.Fprintf(w, "\n%d breach(es):\n  %s\n", len(breaches), strings.Join(breaches, "\n  "))
		return fmt.Errorf("%d end-to-end metric(s) past their bound", len(breaches))
	}
	fmt.Fprintln(w, "\nevery end-to-end metric is within its bound")
	return nil
}
