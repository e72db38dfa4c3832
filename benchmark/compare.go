package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads every untraced result file of a directory written with
// -out, and groups the end-to-end values by workload and metric.
func loadSet(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no *-trace0.json result files (write them with -out)", dir)
	}
	sort.Strings(files)
	set := make(map[string]map[string][]float64)
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var out runOut
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if set[out.Workload] == nil {
			set[out.Workload] = make(map[string][]float64)
		}
		for name, v := range out.EndToEnd {
			set[out.Workload][name] = append(set[out.Workload][name], v)
		}
		if !out.Correct {
			set[out.Workload]["failed_runs"] = append(set[out.Workload]["failed_runs"], 1)
		}
	}
	return set, nil
}

// compareSets judges result set B against set A, one row per workload
// and end-to-end metric: each side's median and quartiles, how much
// worse B's median is than A's, and a verdict against the metric's bound
// in BENCHMARK.json. "unresolved" means a side's own run-to-run spread
// (quartile distance over median) is wider than the bound, so the runs
// cannot tell a regression of that size from noise. It returns the
// process exit code: 0 when every row is ok.
func compareSets(spec *benchSpec, dirA, dirB string) int {
	a, errA := loadSet(dirA)
	b, errB := loadSet(dirB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return judge(spec, a, b)
}

func judge(spec *benchSpec, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-20s %-16s %36s %36s %8s %8s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, def := range spec.EndToEnd {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-20s %-16s missing from one side (A n=%d, B n=%d)\n", wl.Name, def.Name, len(va), len(vb))
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			worse := (mb - ma) / ma
			if def.Better == "higher" {
				worse = -worse
			}
			spread := (a3 - a1) / ma
			if s := (b3 - b1) / mb; s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > def.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread)
				code = 1
			case worse > def.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Printf("%-20s %-16s %36s %36s %+7.1f%% %7.0f%%  %s\n", wl.Name, def.Name,
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", ma, a1, a3, len(va)),
				fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", mb, b1, b3, len(vb)),
				100*worse, 100*def.Bound, verdict)
		}
		if n := len(a[wl.Name]["failed_runs"]) + len(b[wl.Name]["failed_runs"]); n > 0 {
			fmt.Printf("%-20s %d runs had a failed oracle or failed operations\n", wl.Name, n)
			code = 1
		}
	}
	return code
}
