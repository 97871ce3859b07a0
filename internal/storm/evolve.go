package storm

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"govolve/internal/bytecode"
	"govolve/internal/classfile"
	"govolve/internal/upt"
	"govolve/internal/upt/upttest"
)

// This file is the multi-release façade over the storm generator: the
// pieces a version-chain builder (internal/stream) needs without reaching
// into the unexported model. A Version is one immutable link of a chain;
// NextVersion composes the storm mutator with the UPT diff pipeline to
// mint the following link plus the minimal spec that upgrades a live VM
// from one to the other. Everything is a pure function of the caller's
// *rand.Rand, so a whole chain is reproducible from a single seed.

// Version is one immutable program release: the generated model plus the
// bytecode program emitted from it. Two Versions built from the same model
// are bytecode-identical (program emission is pure), which is what lets
// UPT diff successive releases into minimal specs.
type Version struct {
	model *model
	prog  *classfile.Program
}

// Program returns the release's emitted program.
func (v Version) Program() *classfile.Program { return v.prog }

// NumClasses reports the generated-class count (including the hub).
func (v Version) NumClasses() int { return len(v.model.classes) }

// SeedVersion mints the chain's v0: a fresh random class hierarchy with
// the fixed workload classes, exactly as storm.Run boots.
func SeedVersion(rng *rand.Rand, classes int) (Version, error) {
	if classes <= 0 {
		classes = 6
	}
	m := newModel(rng, classes)
	p, err := m.program()
	if err != nil {
		return Version{}, fmt.Errorf("storm: seed version build: %w", err)
	}
	return Version{model: m, prog: p}, nil
}

// StepSpec is one generated release step of a version chain: the UPT spec
// that upgrades the previous Version to Next, the mutation batch that
// produced it, and how many candidate batches UPT legally refused before
// this one (hierarchy permutations — refusal is correct behaviour, counted
// so chain reports stay honest about generator retries).
type StepSpec struct {
	Tag       string
	Spec      *upt.Spec
	Next      Version
	Mutations []string
	Rejected  int
}

// NextVersion mutates cur into the next release and diffs the pair through
// upt.Prepare. It retries mutation batches that cancel out or that UPT
// refuses (counted in StepSpec.Rejected), so the returned step always
// carries a real, legal update. tag becomes the spec's OldTag (the rename
// prefix for old class versions) and must be unique per chain step.
func NextVersion(cur Version, rng *rand.Rand, maxMutations int, tag string) (*StepSpec, error) {
	if maxMutations <= 0 {
		maxMutations = 3
	}
	st := &StepSpec{Tag: tag}
	for attempt := 0; ; attempt++ {
		if attempt >= 25 {
			return nil, fmt.Errorf("storm: no acceptable mutation batch after %d attempts", attempt)
		}
		next := cur.model.clone()
		descs := mutateBatch(next, cur.model, rng, maxMutations)
		if len(descs) == 0 {
			continue
		}
		if next.entryCost() > entryCostBudget {
			// The batch pushed G0.entry's dynamic cost past the budget — on
			// a long chain, accumulated call edges make entry calls so slow
			// that a return barrier can no longer fire within the safe-point
			// search, and every later update would abort. Reject like a UPT
			// legality refusal and mutate again.
			st.Rejected++
			continue
		}
		np, err := next.program()
		if err != nil {
			return nil, fmt.Errorf("storm: candidate program build (%v): %w", descs, err)
		}
		sp, err := upt.Prepare(tag, cur.prog, np)
		if err != nil {
			// A legality limit (e.g. a hierarchy permutation composed out of
			// individually-legal mutations): UPT refusing is correct, not a
			// generator failure. Count it and try another batch.
			st.Rejected++
			continue
		}
		if len(sp.Diffs) == 0 && len(sp.AddedClasses) == 0 && len(sp.DeletedClasses) == 0 {
			continue // mutations cancelled out; not a real update
		}
		shipHandWritten(sp)
		st.Spec = sp
		st.Next = Version{model: next, prog: np}
		st.Mutations = descs
		return st, nil
	}
}

// shipHandWritten makes the object transformers of about half a release's
// updated classes hand-written: the generated body with a nop before its
// return, which upt's move proof rejects. A generated default is a pure field
// copy the collector performs while it copies the object; left alone, a storm
// would never build a shell + old-copy pair, tag one, put an old copy in
// from-space's tail or run jvolveObject at all. Which classes is a hash of tag and class
// name — no draw from the generator's rng, so trajectories do not depend on
// it — and what the program computes is the same either way.
func shipHandWritten(spec *upt.Spec) {
	for _, name := range spec.ClassUpdates {
		if crc32.ChecksumIEEE([]byte(spec.OldTag+"/"+name))&1 == 0 {
			continue
		}
		sig := classfile.Sig("(L" + name + ";L" + spec.RenamedName(name) + ";)V")
		if m := spec.Transformers.Method("jvolveObject", sig); m != nil {
			upttest.HandWriteMethod(m)
		}
	}
}

// InjectEmptyTransformer (test-only) overrides the spec's first default
// object transformer with an empty body — the deliberate fault a chain
// oracle must catch — and reports whether the spec had one to break. The
// empty body is itself a move transformer, one that carries nothing, so the
// collector performs the fault exactly as the interpreter would.
func InjectEmptyTransformer(spec *upt.Spec) bool {
	return injectEmptyTransformer(spec) != ""
}

// injectEmptyTransformer does the override and returns the class name it
// broke, or "" if no updated class's object transformer is a pure field copy.
func injectEmptyTransformer(spec *upt.Spec) string {
	for _, name := range spec.ClassUpdates {
		if _, ok := spec.ObjectMoves(name); !ok {
			continue
		}
		sig := classfile.Sig("(L" + name + ";L" + spec.RenamedName(name) + ";)V")
		spec.OverrideTransformer(&classfile.Method{
			Name: "jvolveObject", Sig: sig, Static: true,
			Code: []bytecode.Ins{{Op: bytecode.RETURN}}, MaxLocals: 2,
		})
		return name
	}
	return ""
}
