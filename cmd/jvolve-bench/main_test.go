package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// root is the repository root, where the documents, the Makefile and the
// BENCH_*.json files live.
const root = "../.."

var (
	inlineCode = regexp.MustCompile("`[^`]+`")
	expRef     = regexp.MustCompile(`-exp\s+([\w|]+)`)
	makeRef    = regexp.MustCompile(`\bmake\s+([a-z][\w-]*)`)
	benchRef   = regexp.MustCompile(`BENCH_\w+\.json`)
	targetDef  = regexp.MustCompile(`(?m)^([a-z][\w-]*):`)
)

// quoted returns the code a markdown document quotes: its fenced blocks and
// its inline code spans.
func quoted(doc string) []string {
	var out []string
	for i, part := range strings.Split(doc, "```") {
		if i%2 == 1 {
			out = append(out, part)
		} else {
			out = append(out, inlineCode.FindAllString(part, -1)...)
		}
	}
	return out
}

// missing lists what the quoted code of doc names and the tree does not have:
// jvolve-bench experiments (-exp X), Makefile targets (make X) and BENCH files.
func missing(t *testing.T, doc string) []string {
	t.Helper()
	exps := map[string]bool{"all": true}
	for _, e := range experiments {
		exps[e.name] = true
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, m := range targetDef.FindAllStringSubmatch(string(makefile), -1) {
		targets = append(targets, m[1])
	}
	var bad []string
	for _, code := range quoted(doc) {
		for _, m := range expRef.FindAllStringSubmatch(code, -1) {
			for _, name := range strings.Split(m[1], "|") {
				if !exps[name] {
					bad = append(bad, "-exp "+name)
				}
			}
		}
		for _, m := range makeRef.FindAllStringSubmatch(code, -1) {
			if !slices.Contains(targets, m[1]) {
				bad = append(bad, "make "+m[1])
			}
		}
		for _, f := range benchRef.FindAllString(code, -1) {
			if _, err := os.Stat(filepath.Join(root, f)); err != nil {
				bad = append(bad, f)
			}
		}
	}
	return bad
}

// TestDocsNameWhatExists fails when a command the documents quote names an
// experiment, a Makefile target or a BENCH file that does not exist.
func TestDocsNameWhatExists(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range missing(t, string(text)) {
			t.Errorf("%s quotes %s, which does not exist", doc, name)
		}
	}
}

// TestMissingCatchesDeletedNames runs the check on lines the documents held
// after the instruments they name were deleted.
func TestMissingCatchesDeletedNames(t *testing.T) {
	doc := "(`-exp gcpause`, `make bench-gc`, `BENCH_gc.json`)\n" +
		"```\n$ make trace        # = jvolve-bench -exp fig5 -runs 1\n```\n" +
		"`-exp table1|fig6 -handwritten`, `make bench-pause` and `BENCH_pause.json` exist."
	want := []string{"-exp gcpause", "make bench-gc", "BENCH_gc.json", "-exp fig5", "-exp fig6"}
	if got := missing(t, doc); !slices.Equal(got, want) {
		t.Fatalf("missing = %q, want %q", got, want)
	}
}
