// Package apps contains the three long-running server applications the
// evaluation updates live, standing in for the paper's Jetty webserver,
// JavaEmailServer, and CrossFTP server. Each app is written in the toy
// language with a full stream of versions whose diffs have the same kinds
// as the paper's Tables 2–4: method-body-only updates, signature changes,
// field additions and deletions, class additions and deletions — and, for
// exactly one version per the first two apps, a change to a method that
// never leaves the stack, which makes the update un-applicable (the
// paper's two failures out of 22).
//
// Versions are composed from shared source fragments: code that must stay
// byte-identical across releases (accept loops, handler run methods) is
// written once, exactly as real consecutive releases share most of their
// text.
package apps

import (
	"fmt"

	"govolve/internal/classfile"
	"govolve/internal/upt"

	"govolve/internal/asm"
)

// Version is one release of an application.
type Version struct {
	// Name is the release name, e.g. "5.1.3".
	Name string
	// Tag is the rename prefix used when updating *from* this version.
	Tag string
	// Source is the complete assembler source of this release.
	Source string
	// Transformers optionally holds custom transformer source (a
	// JvolveTransformers class) for the update *into* this version.
	Transformers string
	// ExpectAbort marks releases whose update can never be applied while
	// the server runs (a changed method is permanently on stack).
	ExpectAbort bool
	// BodyOnly marks updates a method-body-only DSU system (HotSwap,
	// .NET edit-and-continue) could also support.
	BodyOnly bool
	// NeedsQuiesce marks updates that change connection-handler code: they
	// apply only once active sessions drain (the paper's CrossFTP
	// 1.07→1.08 "relatively idle" case).
	NeedsQuiesce bool
}

// Workload is a request mix against one port.
type Workload struct {
	Port  int64
	Lines []string
	// Counters names the request lines whose response ends in a running
	// count of the server's own history (mails delivered so far): two
	// servers of one release agree on them only up to that number.
	Counters []string
}

// App is one updatable server application.
type App struct {
	// Name identifies the app ("webserver", "emailserver", "ftpserver").
	Name string
	// Port is the primary simulated listen port (probes go here).
	Port int64
	// MainClass hosts main()V.
	MainClass string
	// Versions in release order.
	Versions []Version
	// ProbeRequest is sent on a fresh connection to check liveness and
	// which version is active (responses embed the version banner).
	ProbeRequest string
	// Workloads drive load during benchmarks and update attempts.
	Workloads []Workload
}

// Program assembles one version.
func (a *App) Program(i int) (*classfile.Program, error) {
	if i < 0 || i >= len(a.Versions) {
		return nil, fmt.Errorf("apps: %s has no version %d", a.Name, i)
	}
	v := a.Versions[i]
	p, err := asm.AssembleProgram(a.Name+"-"+v.Name+".jva", v.Source)
	if err != nil {
		return nil, fmt.Errorf("apps: %s %s: %w", a.Name, v.Name, err)
	}
	return p, nil
}

// Spec prepares the update specification from version i to i+1, applying
// the target version's custom transformers.
func (a *App) Spec(i int) (*upt.Spec, error) {
	old, err := a.Program(i)
	if err != nil {
		return nil, err
	}
	next, err := a.Program(i + 1)
	if err != nil {
		return nil, err
	}
	spec, err := upt.Prepare(a.Versions[i].Tag, old, next)
	if err != nil {
		return nil, err
	}
	if custom := a.Versions[i+1].Transformers; custom != "" {
		classes, err := asm.Assemble("transformers.jva", custom)
		if err != nil {
			return nil, fmt.Errorf("apps: %s transformers for %s: %w", a.Name, a.Versions[i+1].Name, err)
		}
		for _, m := range classes[0].Methods {
			spec.OverrideTransformer(m)
		}
	}
	return spec, nil
}

// UpdateCount returns the number of version transitions.
func (a *App) UpdateCount() int { return len(a.Versions) - 1 }

// All returns the three applications.
func All() []*App {
	return []*App{Webserver(), EmailServer(), FTPServer()}
}
