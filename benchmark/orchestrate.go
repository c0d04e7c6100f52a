package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// A result set is what the all-workload and -repeat modes write with -out
// and what -compare reads: the env block plus, per workload, the metrics of
// one plain run (or the medians of a -repeat) and of one traced run.
type resultSet struct {
	Env       envBlock                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Values only: the units are in BENCHMARK.json.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// Spread is filled by -repeat: per end-to-end metric, how far the sets
	// lay apart, as shares of the median.
	Spread map[string]spread `json:"spread,omitempty"`
}

type spread struct {
	N        int     `json:"n"`
	RelRange float64 `json:"rel_range"` // (max − min) / median
	RelIQR   float64 `json:"rel_iqr"`   // (Q3 − Q1) / median, quartiles as statistics.quantiles(n=4)
}

// child runs one workload in a fresh process of this same binary, the way
// the driver does, so mem_sys_mb and GC state never carry over from one
// workload to the next. It passes the child's report through.
func child(cfg runConfig, name string, seed uint64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	os.Stdout.Write(stdout)
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return result{}, fmt.Errorf("running %s: %w", name, runErr)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s printed no result (%v): %w", name, runErr, err)
	}
	return res, nil
}

// orchestrate runs every workload — plain then traced, or `repeat` plain
// sets — and returns the process's exit code: 1 if any operation failed.
func orchestrate(cfg runConfig, repeat int, outPath string) int {
	set := resultSet{Env: newEnv(cfg), Workloads: make(map[string]*workloadResult)}
	printEnv(set.Env)
	ok := true
	run := func(name string, seed uint64, trace int) map[string]float64 {
		res, err := child(cfg, name, seed, trace)
		if err != nil {
			fatalf(2, "benchmark: %v", err)
		}
		wr := set.Workloads[name]
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		ok = ok && res.Correct
		vals := make(map[string]float64, len(res.Metrics))
		for k, m := range res.Metrics {
			vals[k] = m.Value
		}
		return vals
	}
	for _, spec := range workloadSpecs {
		set.Workloads[spec.name] = &workloadResult{}
	}
	if repeat > 0 {
		samples := make(map[string]map[string][]float64)
		for i := 0; i < repeat; i++ {
			for _, spec := range workloadSpecs {
				if samples[spec.name] == nil {
					samples[spec.name] = make(map[string][]float64)
				}
				for k, v := range run(spec.name, cfg.seed+uint64(i), 0) {
					samples[spec.name][k] = append(samples[spec.name][k], v)
				}
			}
		}
		ok = summarize(&set, samples) && ok
	} else {
		for _, spec := range workloadSpecs {
			set.Workloads[spec.name].EndToEnd = run(spec.name, cfg.seed, 0)
			set.Workloads[spec.name].PerLayer = run(spec.name, cfg.seed, 1)
		}
	}
	if outPath != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatalf(2, "benchmark: writing %s: %v", outPath, err)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// summarize prints, per workload × end-to-end metric, the median over the
// repeated sets and how far they lay apart, next to the bound, and stores
// both in set. It reports whether every spread stayed within a third of
// its bound — the steadiness this benchmark is held to.
func summarize(set *resultSet, samples map[string]map[string][]float64) bool {
	steady := true
	fmt.Printf("\n%-9s %-20s %14s %10s %10s %8s\n", "workload", "metric", "median", "rel_range", "rel_iqr", "bound")
	for _, spec := range workloadSpecs {
		wr := set.Workloads[spec.name]
		wr.EndToEnd, wr.Spread = make(map[string]float64), make(map[string]spread)
		for _, s := range endToEndSpecs() {
			vs := samples[spec.name][s.Name]
			if len(vs) == 0 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			sp := spread{N: len(vs), RelRange: (slices.Max(vs) - slices.Min(vs)) / med, RelIQR: (q3 - q1) / med}
			wr.EndToEnd[s.Name] = med
			wr.Spread[s.Name] = sp
			note := ""
			if s.Name != "setup_s" && sp.RelIQR > s.Bound/3 {
				note, steady = "  <- spread above bound/3", false
			}
			fmt.Printf("%-9s %-20s %14.4f %10.4f %10.4f %8g%s\n", spec.name, s.Name, med, sp.RelRange, sp.RelIQR, s.Bound, note)
		}
	}
	return steady
}

func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets judges result set b against a by the declared bounds and
// returns the exit code: 2 if the sets are not comparable, 1 if any
// end-to-end metric got worse by more than its bound or any op failed.
func compareSets(pathA, pathB string) int {
	a, err := loadSet(pathA)
	if err != nil {
		fatalf(2, "benchmark: %v", err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		fatalf(2, "benchmark: %v", err)
	}
	if err := a.Env.comparable(b.Env); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare %s with %s: %v\n", pathA, pathB, err)
		return 2
	}
	code := 0
	for _, spec := range workloadSpecs {
		wa, wb := a.Workloads[spec.name], b.Workloads[spec.name]
		if wa == nil || wb == nil {
			continue
		}
		if wb.Failed > 0 {
			fmt.Printf("%-9s %d of %d operations failed\n", spec.name, wb.Failed, wb.Attempted)
			code = 1
		}
		for _, s := range endToEndSpecs() {
			va, vb := wa.EndToEnd[s.Name], wb.EndToEnd[s.Name]
			if va == 0 {
				continue
			}
			worse := (vb - va) / va
			if s.Better == higher {
				worse = -worse
			}
			verdict := "within bound"
			if worse > s.Bound {
				verdict, code = "REGRESSED", 1
			}
			fmt.Printf("%-9s %-20s %14.4f -> %14.4f  worse by %+7.2f%% (bound %g%%)  %s\n",
				spec.name, s.Name, va, vb, 100*worse, 100*s.Bound, verdict)
		}
	}
	return code
}
