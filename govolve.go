// Package govolve is a reproduction of "Dynamic Software Updates: A
// VM-centric Approach" (Subramanian, Hicks, McKinley — PLDI 2009): a toy
// managed-language virtual machine with JVOLVE-style dynamic software
// updating built from coordinated VM services — classloading, JIT
// compilation with baked-in offsets, green-thread scheduling with yield
// points, return barriers, on-stack replacement, and a semi-space copying
// garbage collector extended to transform objects of updated classes.
//
// Quick start:
//
//	prog, _ := govolve.Assemble("hello.jva", src)
//	machine, _ := govolve.NewVM(govolve.Options{})
//	machine.LoadProgram(prog)
//	machine.SpawnMain("Hello")
//	machine.Run()
//
// Dynamic update:
//
//	spec, _ := govolve.PrepareUpdate("10", oldProg, newProg)
//	engine := govolve.NewEngine(machine)
//	result, _ := engine.ApplyNow(spec, govolve.UpdateOptions{})
package govolve

import (
	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/core"
	"govolve/internal/upt"
	"govolve/internal/vm"
)

// VM is the virtual machine. See internal/vm for the full surface.
type VM = vm.VM

// Options configures NewVM.
type Options = vm.Options

// Thread is a VM green thread.
type Thread = vm.Thread

// Program is one version of an application: a set of classes.
type Program = classfile.Program

// Class is a single class definition.
type Class = classfile.Class

// Spec is an update specification produced by the Update Preparation Tool.
type Spec = upt.Spec

// Engine is the DSU engine bound to a VM.
type Engine = core.Engine

// UpdateOptions tunes one update request.
type UpdateOptions = core.Options

// UpdateResult is the terminal state of an update.
type UpdateResult = core.Result

// Update outcomes.
const (
	Applied = core.Applied
	Aborted = core.Aborted
	Failed  = core.Failed
)

// NewVM constructs a virtual machine with bootstrap classes loaded.
func NewVM(opts Options) (*VM, error) { return vm.New(opts) }

// Assemble parses assembler source into a program.
func Assemble(file, src string) (*Program, error) {
	return asm.AssembleProgram(file, src)
}

// PrepareUpdate runs the Update Preparation Tool over two program versions,
// producing the update specification with generated default transformers
// and the verifier's verdict on the new version, which Engine.RequestUpdate
// returns if it is a rejection. oldTag becomes the rename prefix of old
// class versions (tag "131" renames User to v131_User).
func PrepareUpdate(oldTag string, old, new_ *Program) (*Spec, error) {
	return upt.Prepare(oldTag, old, new_)
}

// NewEngine attaches a DSU engine to a VM.
func NewEngine(v *VM) *Engine { return core.NewEngine(v) }
