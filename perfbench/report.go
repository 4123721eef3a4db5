package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSet is one steadiness set: every workload run several times, each in
// a fresh process with its own workload seed. It is what --report --save
// writes and what --compare reads.
type runSet struct {
	Started    string                  `json:"started"` // UTC, RFC 3339
	CPU        string                  `json:"cpu"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Go         string                  `json:"go"`
	Seeds      []uint64                `json:"seeds"`
	Seconds    float64                 `json:"seconds"`
	Workloads  map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	Correct     bool                  `json:"correct"`
	Metrics     map[string]*seriesSet `json:"metrics"`
	Diagnostics map[string]*seriesSet `json:"diagnostics"`
}

// seriesSet is one metric's value on every run of a set, in seed order.
type seriesSet struct {
	Unit   string    `json:"unit,omitempty"`
	Values []float64 `json:"values"`
}

func (w *workloadSet) add(into map[string]*seriesSet, name, unit string, v float64) {
	s := into[name]
	if s == nil {
		s = &seriesSet{Unit: unit}
		into[name] = s
	}
	s.Values = append(s.Values, v)
}

// steadiness repeats every workload runs times, each in a fresh process
// with its own seed (seed, seed+1, ...), and prints a Markdown report: per
// metric every run's value, the median and the spread (interquartile
// distance over the median), plus the diagnostics that gate nothing. With
// save set it also writes the set as JSON, for --compare.
func steadiness(runs int, seed uint64, seconds float64, save string) error {
	if runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &runSet{Started: time.Now().UTC().Format(time.RFC3339), CPU: cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Seconds: seconds,
		Workloads: map[string]*workloadSet{}}
	for i := 0; i < runs; i++ {
		set.Seeds = append(set.Seeds, seed+uint64(i))
	}
	fmt.Printf("# perfbench steadiness report\n\n")
	fmt.Printf("- started: %s\n- CPU: %s\n- GOMAXPROCS: %d\n- Go: %s\n", set.Started, set.CPU, set.GOMAXPROCS, set.Go)
	fmt.Printf("- runs per workload: %d, workload seeds %d..%d, %gs timed window each\n\n",
		runs, seed, seed+uint64(runs)-1, seconds)
	for _, w := range workloads {
		ws := &workloadSet{Correct: true, Metrics: map[string]*seriesSet{}, Diagnostics: map[string]*seriesSet{}}
		set.Workloads[w] = ws
		for _, s := range set.Seeds {
			cmd := exec.Command(exe, "--workload", w, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			start := time.Now()
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			res, d, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			ws.Correct = ws.Correct && res.Correct
			for _, k := range sortedKeys(res.Metrics) {
				ws.add(ws.Metrics, k, res.Metrics[k].Unit, res.Metrics[k].Value)
			}
			d["run_wall_s"] = time.Since(start).Seconds()
			for _, k := range sortedKeys(d) {
				ws.add(ws.Diagnostics, k, "", d[k])
			}
		}
		fmt.Printf("## %s\n\nAll runs correct: %t.\n\n", w, ws.Correct)
		printTable(ws.Metrics, runs)
		if len(ws.Diagnostics) > 0 {
			fmt.Printf("Diagnostics (gate nothing):\n\n")
			printTable(ws.Diagnostics, runs)
		}
	}
	if save == "" {
		return nil
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(save, append(raw, '\n'), 0o644)
}

// parseRun reads one run's stdout: the final result line and the
// diagnostics line before it.
func parseRun(out []byte) (result, map[string]float64, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, nil, fmt.Errorf("parse result line: %w", err)
	}
	var diag struct {
		Diagnostics map[string]float64 `json:"diagnostics"`
	}
	for _, l := range lines {
		if strings.HasPrefix(l, `{"diagnostics"`) {
			if err := json.Unmarshal([]byte(l), &diag); err != nil {
				return res, nil, fmt.Errorf("parse diagnostics: %w", err)
			}
		}
	}
	if diag.Diagnostics == nil {
		diag.Diagnostics = map[string]float64{}
	}
	return res, diag.Diagnostics, nil
}

func printTable(series map[string]*seriesSet, runs int) {
	var b bytes.Buffer
	b.WriteString("| metric | unit |")
	for i := 1; i <= runs; i++ {
		fmt.Fprintf(&b, " run %d |", i)
	}
	b.WriteString(" median | spread |\n|---|---|")
	b.WriteString(strings.Repeat("---|", runs+2) + "\n")
	for _, k := range sortedKeys(series) {
		s := series[k]
		fmt.Fprintf(&b, "| %s | %s |", k, s.Unit)
		for _, v := range s.Values {
			fmt.Fprintf(&b, " %.4g |", v)
		}
		fmt.Fprintf(&b, " %.4g | %.1f%% |\n", median(s.Values), 100*spread(s.Values))
	}
	b.WriteString("\n")
	os.Stdout.Write(b.Bytes())
}

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// worseBy is how much worse median b is than median a, as a share of a,
// for a metric where better is "lower" or "higher"; negative when b is
// better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// compareSets prints, per workload and end-to-end metric, the two sets'
// medians, how much worse either is than the other (whichever set is
// taken as the parent), each set's spread, and the metric's bound from
// spec. A line is over when a median is worse than the other by more than
// the bound, or when a spread other than setup_s's exceeds it. It returns
// how many lines are over.
func compareSets(spec []byte, a, b *runSet, la, lb string) (int, error) {
	var bs benchSpec
	if err := json.Unmarshal(spec, &bs); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("%s started %s with seeds %v; %s started %s with seeds %v.\n\n", la, a.Started, a.Seeds, lb, b.Started, b.Seeds)
	over := 0
	for _, w := range workloads {
		wa, wb := a.Workloads[w], b.Workloads[w]
		if wa == nil || wb == nil {
			return over, fmt.Errorf("workload %s is missing from a set", w)
		}
		fmt.Printf("### %s\n\n| metric | median %s | median %s | worse by | spread %s | spread %s | bound | verdict |\n|---|---|---|---|---|---|---|---|\n",
			w, la, lb, la, lb)
		for _, m := range bs.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if sa == nil || sb == nil {
				return over, fmt.Errorf("%s: metric %s is missing from a set", w, m.Name)
			}
			ma, mb := median(sa.Values), median(sb.Values)
			d := max(worseBy(ma, mb, m.Better), worseBy(mb, ma, m.Better), 0)
			pa, pb := spread(sa.Values), spread(sb.Values)
			verdict := "ok"
			switch {
			case d > m.Bound:
				verdict = "OVER: median"
			case m.Name != "setup_s" && (pa > m.Bound || pb > m.Bound):
				verdict = "OVER: spread"
			case m.Name != "setup_s" && (pa > m.Bound/3 || pb > m.Bound/3):
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "OVER") {
				over++
			}
			fmt.Printf("| %s | %.4g | %.4g | %.1f%% | %.1f%% | %.1f%% | %g%% | %s |\n",
				m.Name, ma, mb, 100*d, 100*pa, 100*pb, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	return over, nil
}

func readRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles compares the two saved sets named by "A.json,B.json".
func compareFiles(paths string) (int, error) {
	a, b, ok := strings.Cut(paths, ",")
	if !ok {
		return 0, fmt.Errorf("--compare wants two files, A.json,B.json")
	}
	spec, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	sa, err := readRunSet(a)
	if err != nil {
		return 0, err
	}
	sb, err := readRunSet(b)
	if err != nil {
		return 0, err
	}
	label := func(p string) string { return strings.TrimSuffix(filepath.Base(p), ".json") }
	return compareSets(spec, sa, sb, label(a), label(b))
}
