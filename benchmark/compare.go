package main

import (
	"fmt"
	"io"
)

// exactCounts are the per-layer metrics that count work the guest or the
// engine did: two runs of one commit on one seed must agree on them to the
// last digit.
var exactCounts = []string{
	"netsim.calls_per_req",
	"vm.slices_per_req",
	"vm.sched_scans_per_slice",
	"vm.wake_checks_per_scan",
	"vm.threads_spawned_per_req",
	"vm.ins_per_req",
	"vm.guest_allocs_per_req",
	"vm.kernel.alloc_gc_collections",
	"heap.used_words_after",
	"gc.dsu_copied_words.f50",
	"core.applied",
	"core.aborted_expected",
	"core.osr_frames",
	"core.barriers_installed",
	"upt.specs",
	"jit.methods",
}

// compareFiles prints, per workload, every end-to-end metric of result set
// B against A with the bound from BENCHMARK.json, and returns an error if
// any is worse by more than its bound, any operation failed, any exact
// count differs, or a run is unresolved.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Host.NProc != b.Host.NProc || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS ||
		a.Host.Seed != b.Host.Seed || a.Host.Seconds != b.Host.Seconds {
		return fmt.Errorf("refusing to compare: host stamps differ (nproc %d/%d, GOMAXPROCS %d/%d, seed %d/%d, seconds %g/%g)",
			a.Host.NProc, b.Host.NProc, a.Host.GOMAXPROCS, b.Host.GOMAXPROCS,
			a.Host.Seed, b.Host.Seed, a.Host.Seconds, b.Host.Seconds)
	}
	fmt.Fprintf(w, "A %s commit %s\nB %s commit %s\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	bad := 0
	row := func(workload, metric string, va, vb float64, worse, bound string, verdict string) {
		fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %9s %7s  %s\n", workload, metric, va, vb, worse, bound, verdict)
		if verdict != "ok" {
			bad++
		}
	}
	for _, ra := range a.Runs {
		rb := findRun(b, ra.Workload, ra.Trace)
		if rb == nil {
			return fmt.Errorf("%s has no run of %s with trace %d", pathB, ra.Workload, ra.Trace)
		}
		if ra.Trace == 1 {
			for _, name := range exactCounts {
				if ra.Metrics[name].Value != rb.Metrics[name].Value {
					row(ra.Workload, name, ra.Metrics[name].Value, rb.Metrics[name].Value, "", "exact", "DIFFERS")
				}
			}
			continue
		}
		verdict := "ok"
		if rb.Failed > 0 {
			verdict = "FAILED OPERATIONS"
		}
		row(ra.Workload, "failed_ratio", ratio(float64(ra.Failed), float64(ra.Attempted)),
			ratio(float64(rb.Failed), float64(rb.Attempted)), "", "0", verdict)
		for _, d := range spec.EndToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (ra.Unresolved || rb.Unresolved) && guarded(d):
				verdict = "UNRESOLVED"
			case worse > d.Bound:
				verdict = "WORSE"
			}
			row(ra.Workload, d.Name, va, vb, fmt.Sprintf("%+.1f%%", worse*100), fmt.Sprintf("%.0f%%", d.Bound*100), verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows outside their bounds", bad)
	}
	return nil
}

func findRun(f *resultFile, workload string, trace int) *runRecord {
	for i := range f.Runs {
		if f.Runs[i].Workload == workload && f.Runs[i].Trace == trace {
			return &f.Runs[i]
		}
	}
	return nil
}
