package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"govolve/internal/stream"
)

// The stream experiment measures long-horizon updatability: a seeded
// version chain of sequential releases replayed against a live VM in every
// engine mode, with the chain-wide oracle armed at each step. Where pausecmp
// measures one update's pause decomposition, stream measures what operators
// of a dynamically-updated service actually live with — how many updates per
// minute the engine sustains over a whole release history, the p50/p99 pause
// across that history, and (concurrent mode) how large the post-pause drain
// backlog grows under hostile back-to-back schedules.

// StreamSweep configures the chain-length × mode grid.
type StreamSweep struct {
	// Seed is the chain seed; every (length, mode) cell replays the same
	// generated release history.
	Seed int64
	// Lengths is the chain-length axis (default 20 and 50 releases).
	Lengths []int
	// Modes is the engine-mode axis, by name (default all of stream.Modes).
	Modes []string
	// Hostile schedules back-to-back updates and drain overlaps instead of
	// the benign era cadence (default true — the operator's bad day).
	Hostile bool
}

// StreamRow is one replayed chain in one mode.
type StreamRow struct {
	Mode    string `json:"mode"`
	Length  int    `json:"length"`
	Seed    int64  `json:"seed"`
	Hostile bool   `json:"hostile"`

	Applied  int `json:"applied"`
	Aborted  int `json:"aborted"`
	Rejected int `json:"rejected"` // generator batches UPT refused chain-wide

	WallMillis    float64 `json:"wall_ms"`
	UpdatesPerMin float64 `json:"updates_per_min"`

	PauseP50Millis float64 `json:"pause_p50_ms"`
	PauseP99Millis float64 `json:"pause_p99_ms"`
	PauseMaxMillis float64 `json:"pause_max_ms"`

	// Concurrent mode: the largest drain backlog any step left behind, and what
	// remained when the chain ended (always 0 — the terminal drain is part
	// of the replay contract; recorded so the JSON proves it).
	MaxDrainBacklog   int `json:"max_drain_backlog"`
	FinalDrainBacklog int `json:"final_drain_backlog"`
}

// RunStream replays the grid. Every cell must complete its whole chain with
// the oracle clean — a replay error is a bench failure, not a data point.
func RunStream(sw StreamSweep, progress io.Writer) (*Report[StreamRow], error) {
	if sw.Seed == 0 {
		sw.Seed = 1905
	}
	if len(sw.Lengths) == 0 {
		sw.Lengths = []int{20, 50}
	}
	if len(sw.Modes) == 0 {
		for _, m := range stream.Modes() {
			sw.Modes = append(sw.Modes, m.Name)
		}
	}
	rep := &Report[StreamRow]{
		Experiment: "stream",
		Host:       ThisHost(),
		Note: "each row replays one seeded version chain end to end with the " +
			"chain-wide oracle checked at every step; updates_per_min is applied " +
			"updates over replay wall time (oracle sweeps included, so it is a " +
			"sustained-operation figure, not a pause reciprocal). Pause percentiles " +
			"are over the chain's per-update total pauses. Concurrent rows must end with " +
			"final_drain_backlog = 0.",
	}
	for _, length := range sw.Lengths {
		for _, name := range sw.Modes {
			mode, ok := stream.ModeByName(name)
			if !ok {
				return nil, fmt.Errorf("bench: stream: unknown mode %q", name)
			}
			start := time.Now()
			r, err := stream.Replay(stream.Config{
				Seed:    sw.Seed,
				Length:  length,
				Mode:    mode,
				Hostile: sw.Hostile,
			})
			if err != nil {
				return nil, fmt.Errorf("bench: stream length=%d mode=%s: %w", length, name, err)
			}
			wall := time.Since(start)
			var pauses []float64
			for i := range r.Records {
				pauses = append(pauses, r.Records[i].PauseTotalMs)
			}
			slices.Sort(pauses)
			finalBacklog := 0
			if n := len(r.Records); n > 0 {
				finalBacklog = r.Records[n-1].Backlog
			}
			row := StreamRow{
				Mode:    name,
				Length:  length,
				Seed:    sw.Seed,
				Hostile: sw.Hostile,

				Applied:  r.Applied,
				Aborted:  r.Aborted,
				Rejected: r.Rejected,

				WallMillis:     Millis(wall),
				PauseP50Millis: quantile(pauses, 0.50),
				PauseP99Millis: quantile(pauses, 0.99),
				PauseMaxMillis: quantile(pauses, 1.0),

				MaxDrainBacklog:   r.MaxBacklog,
				FinalDrainBacklog: finalBacklog,
			}
			if wall > 0 {
				row.UpdatesPerMin = float64(r.Applied) / wall.Minutes()
			}
			rep.Rows = append(rep.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, ".")
			}
		}
		if progress != nil {
			fmt.Fprintln(progress)
		}
	}
	return rep, nil
}

// PrintStream renders the grid as text.
func PrintStream(w io.Writer, rep *Report[StreamRow]) {
	fmt.Fprintf(w, "Long-horizon update streams (%s)\n", rep.Host)
	fmt.Fprintf(w, "%15s %7s %8s %8s %9s %9s %12s %9s %9s %11s\n",
		"mode", "length", "applied", "aborted", "wall(ms)", "upd/min", "p50-pause", "p99-pause", "max-pause", "max-backlog")
	for _, r := range rep.Rows {
		fmt.Fprintf(w, "%15s %7d %8d %8d %9.1f %9.0f %11.2fms %7.2fms %7.2fms %11d\n",
			r.Mode, r.Length, r.Applied, r.Aborted, r.WallMillis, r.UpdatesPerMin,
			r.PauseP50Millis, r.PauseP99Millis, r.PauseMaxMillis, r.MaxDrainBacklog)
	}
	fmt.Fprintf(w, "note: %s\n", rep.Note)
}
