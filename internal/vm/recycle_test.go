package vm_test

import (
	"bytes"
	"testing"

	"govolve/internal/asm"
	"govolve/internal/classfile"
	"govolve/internal/rt"
	"govolve/internal/storm"
	"govolve/internal/vm"
)

// recycleSrc parks threads in Net.recvLine (park, and nap under spin, whose
// frame a test arms as a return barrier), kills everything with System.exit
// (quit), and spawns short-lived threads from guest code (burst: a Worker on
// no connection reads null at once and returns).
const recycleSrc = `
class Worker {
  field conn I
  method <init>(I)V {
    load 0
    invokespecial Object.<init>()V
    load 0
    load 1
    putfield Worker.conn I
    return
  }
  method run()V {
    load 0
    getfield Worker.conn I
    invokestatic Srv.park(I)V
    return
  }
}
class Srv {
  static method open()V {
    const 80
    invokestatic Net.listen(I)I
    pop
    return
  }
  static method park(I)V {
  loop:
    load 0
    invokestatic Net.recvLine(I)LString;
    ifnonnull loop
    return
  }
  static method spin(I)V {
    load 0
    invokestatic Srv.nap(I)V
    return
  }
  static method nap(I)V {
    load 0
    invokestatic Net.recvLine(I)LString;
    pop
    return
  }
  static method burst()V {
    const 0
    store 0
  loop:
    load 0
    const 6
    if_icmpge done
    new Worker
    dup
    const -1
    invokespecial Worker.<init>(I)V
    invokestatic Thread.spawn(LObject;)V
    load 0
    const 1
    add
    store 0
    goto loop
  done:
    return
  }
  static method quit()V {
    const 3
    invokestatic System.exit(I)V
    return
  }
}`

// TestThreadRecyclingKeepsSchedulerLists kills threads while the scheduler
// still files them — parked in blocked when System.exit runs, or released
// into the runnable ring by a DSU update and killed there before they run —
// reaps them at once, and keeps spawning. A record still in a list must not
// come back from newThread: it would be filed twice and run twice.
// storm.CheckVM (VM.CheckScheduler: each record in at most one list, once; no
// spare record filed or in the table) runs after every spawn and every step.
func TestThreadRecyclingKeepsSchedulerLists(t *testing.T) {
	// Each case parks threads and files quit to run next.
	for _, tc := range []struct {
		name string
		park func(t *testing.T, v *vm.VM, spawn func(string, ...rt.Value) *vm.Thread)
	}{
		{"exit-while-blocked", func(t *testing.T, v *vm.VM, spawn func(string, ...rt.Value) *vm.Thread) {
			for i := 0; i < 6; i++ {
				conn, err := v.Net.Connect(80)
				if err != nil {
					t.Fatal(err)
				}
				spawn("park", rt.IntVal(conn))
			}
			v.Step(20)
			if got := v.Stats().BlockedThreads; got != 6 {
				t.Fatalf("%d threads parked in recvLine, want 6", got)
			}
			spawn("quit")
		}},
		{"exit-after-dsu-release", func(t *testing.T, v *vm.VM, spawn func(string, ...rt.Value) *vm.Thread) {
			var conns []int64
			var spinners []*vm.Thread
			for i := 0; i < 6; i++ {
				conn, err := v.Net.Connect(80)
				if err != nil {
					t.Fatal(err)
				}
				conns = append(conns, conn)
				spinners = append(spinners, spawn("spin", rt.IntVal(conn)))
			}
			v.Step(20)
			for _, th := range spinners {
				th.Top().Barrier = true // nap's frame, parked in recvLine
			}
			v.UpdateHandler = func() bool { return false }
			v.SetUpdatePending(true)
			for _, conn := range conns {
				if err := v.Net.ClientSend(conn, "wake"); err != nil {
					t.Fatal(err)
				}
			}
			v.Step(20)
			for _, th := range spinners {
				if th.State != vm.UpdateWait {
					t.Fatalf("spinner %d is %s, want parked on its return barrier", th.ID, th.State)
				}
			}
			// The release files the spinners in the ring behind quit, which
			// then kills them before they run.
			spawn("quit")
			v.ReleaseUpdateWaiters()
			v.SetUpdatePending(false)
			v.UpdateHandler = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v, err := vm.New(vm.Options{HeapWords: 1 << 16, Out: &bytes.Buffer{}})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.AssembleProgram("recycle.jva", recycleSrc)
			if err != nil {
				t.Fatal(err)
			}
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				if err := storm.CheckVM(v); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			srv := v.Reg.LookupClass("Srv")
			seen := map[*vm.Thread]bool{}
			spawn := func(name string, args ...rt.Value) *vm.Thread {
				t.Helper()
				sig := classfile.Sig("()V")
				if len(args) > 0 {
					sig = "(I)V"
				}
				th, err := v.Spawn(name, srv.Method(name, sig), args)
				if err != nil {
					t.Fatal(err)
				}
				seen[th] = true
				check("after spawning " + name)
				return th
			}
			spawn("open")
			v.Step(5)
			tc.park(t, v, spawn)
			v.Step(1) // quit alone: everything else is parked or filed behind it
			if !v.Exited {
				t.Fatal("System.exit did not run")
			}
			v.ReapDeadThreads() // before the scheduler drops the dead from its lists
			check("after the reap")
			for round := 0; round < 20; round++ {
				for i := 0; i < 3; i++ { // past quit's record, before a step drops the dead
					spawn("burst")
				}
				for v.Step(1) > 0 {
					check("after a step")
				}
				v.ReapDeadThreads()
				check("after a reap")
			}
			spawned := v.Stats().ThreadsSpawned
			if len(seen) > 30 || spawned < 20*3*7 {
				t.Fatalf("%d records handed out by Spawn over %d spawns: recycling is off", len(seen), spawned)
			}
		})
	}
}
