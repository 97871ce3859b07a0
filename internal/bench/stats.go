// Package bench implements the experiments of the paper's evaluation that
// the bench of record (benchmark/) does not measure: the update-pause grid
// behind Table 1 and Figure 6 in every engine mode, the UPT summary tables
// behind Tables 2–4, the §4 update-applicability matrix, and the extension
// grids (streams, the observability plane, interpreter dispatch).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// Summary reports a sample's median and quartiles — the paper reports
// medians and inter-quartile ranges over 21 runs ("With 21 runs, the range
// between the quartiles serves as a 98% confidence interval").
type Summary struct {
	N        int
	Median   float64
	Q1, Q3   float64
	Min, Max float64
}

// Summarize computes the five-number-ish summary of a sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return Summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// quantile interpolates the p-quantile of a sorted sample (0 if empty).
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func (s Summary) String() string {
	return fmt.Sprintf("median %.3f (q1 %.3f, q3 %.3f, n=%d)", s.Median, s.Q1, s.Q3, s.N)
}

// Millis converts a duration to float milliseconds.
func Millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Host is the stamp of the machine a report was measured on, and of the
// commit its binary was built from.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model,omitempty"` // where the OS reports one
	// Commit and Modified are the build's vcs.revision and vcs.modified, which
	// go build stamps and go run and go test do not: "" is no stamp.
	Commit   string `json:"commit"`
	Modified bool   `json:"modified"`
}

// ThisHost stamps the running process.
func ThisHost() Host {
	h := Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Commit = kv.Value
			case "vcs.modified":
				h.Modified = kv.Value == "true"
			}
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h Host) String() string {
	s := fmt.Sprintf("%s/%s, %d CPUs, GOMAXPROCS %d, %s", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.GoVersion)
	if h.CPUModel != "" {
		s += ", " + h.CPUModel
	}
	if h.Commit != "" {
		s += ", commit " + h.Commit
	}
	if h.Modified {
		s += " (modified)"
	}
	return s
}

// machine is the stamp without the build's commit.
func (h Host) machine() Host {
	h.Commit, h.Modified = "", false
	return h
}

// Report is the document of every BENCH_*.json file: one experiment's rows
// under the stamp of the host that measured them.
type Report[Row any] struct {
	Experiment string `json:"experiment"`
	Host       Host   `json:"host"`
	Note       string `json:"note"`
	Rows       []Row  `json:"rows"`
}

// WriteReport writes the report as indented JSON. It refuses to overwrite a
// file stamped by another machine, and names both stamps; an unstamped file,
// or one another commit recorded on this machine, is overwritten.
func WriteReport[Row any](path string, rep *Report[Row]) error {
	if old, err := os.ReadFile(path); err == nil {
		var prev struct {
			Host Host `json:"host"`
		}
		if json.Unmarshal(old, &prev) == nil && prev.Host != (Host{}) && prev.Host.machine() != rep.Host.machine() {
			return fmt.Errorf("bench: %s was recorded on %s, not on this host (%s); remove it to re-record here",
				path, prev.Host, rep.Host)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
