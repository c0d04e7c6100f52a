package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
)

// envBlock is the topology and configuration a result set was measured
// under. It is printed with every output; two result sets whose NumCPU or
// segment length differ are not comparable and -compare refuses them.
type envBlock struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// SegmentSeconds is the timed segment of a plain run per workload; the
	// untimed warm-up before each is an eighth of it.
	SegmentSeconds map[string]float64 `json:"segment_seconds"`
}

func newEnv(cfg runConfig) envBlock {
	segs := make(map[string]float64)
	for _, spec := range workloadSpecs {
		segs[spec.name] = cfg.segment(spec.rounds).Seconds()
	}
	return envBlock{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NProc:          cfg.nproc,
		CPUModel:       cpuModel(),
		GoVersion:      runtime.Version(),
		Commit:         gitCommit(),
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		SegmentSeconds: segs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reports HEAD when the working directory is the root of a git
// checkout. It does not ask git otherwise: an exported tree has no
// repository, and git would go looking for one in the parent directories.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// comparable reports why two result sets must not be compared, or nil.
func (e envBlock) comparable(o envBlock) error {
	if e.NumCPU != o.NumCPU {
		return fmt.Errorf("env differs: num_cpu %d vs %d", e.NumCPU, o.NumCPU)
	}
	if !reflect.DeepEqual(e.SegmentSeconds, o.SegmentSeconds) {
		return fmt.Errorf("env differs: segment_seconds %v vs %v", e.SegmentSeconds, o.SegmentSeconds)
	}
	return nil
}
