package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// grow executes reg-writing steps until the undo log holds n records.
func grow(s *State, p int, n int) {
	for s.UndoLen() < n {
		s.StepAt(p)
	}
}

func TestCompactToReleasesOversizedLog(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	grow(s, 0, undoRetainCap+100) // pc 0 is a register write
	sn := s.Checkpoint()
	s.CompactTo(sn)
	if s.UndoLen() != 0 {
		t.Fatalf("undo length = %d, want 0", s.UndoLen())
	}
	if cap(s.undo) != 0 {
		t.Errorf("oversized undo capacity retained: %d", cap(s.undo))
	}
	// The state must remain fully usable: new snapshots roll back.
	before := s.Regs[1]
	sn2 := s.Checkpoint()
	s.StepAt(0)
	s.Rollback(sn2)
	if s.Regs[1] != before {
		t.Error("rollback after compaction lost register state")
	}
}

func TestCompactToKeepsModestCapacity(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	grow(s, 0, 100)
	s.CompactTo(s.Checkpoint())
	if s.UndoLen() != 0 {
		t.Fatalf("undo length = %d, want 0", s.UndoLen())
	}
	if cap(s.undo) == 0 {
		t.Error("modest capacity freed; steady state should reuse it")
	}
}

// TestCompactToPartialRelease verifies CompactTo with a mid-log snapshot
// behaves like ReleaseBefore: older records drop, newer ones stay valid.
func TestCompactToPartialRelease(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	s.StepAt(0) // r1 = 5
	mid := s.Checkpoint()
	s.StepAt(1) // r2 = 0
	s.StepAt(0)
	s.CompactTo(mid)
	if s.UndoLen() != 2 {
		t.Fatalf("undo length = %d, want 2", s.UndoLen())
	}
	s.Rollback(mid)
	if s.Regs[1] != 5 {
		t.Errorf("r1 = %d, want 5 after rollback to mid", s.Regs[1])
	}
}

func TestResetUndoKeepsMarksMonotonic(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	s.StepAt(0)
	s.StepAt(1)
	s.ResetUndo()
	if s.UndoLen() != 0 {
		t.Fatalf("undo length = %d, want 0", s.UndoLen())
	}
	// A snapshot taken after the reset must be a valid rollback point.
	sn := s.Checkpoint()
	before := s.Regs[1]
	s.StepAt(0)
	s.Rollback(sn)
	if s.Regs[1] != before {
		t.Error("post-reset snapshot did not roll back correctly")
	}
	// A stale pre-reset rollback must not underflow (clamped to empty log).
	s.Rollback(Snapshot{})
}

func TestCallStackCopySemantics(t *testing.T) {
	b := program.NewBuilder("call")
	b.Here("main")
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "fn")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Here("fn")
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	s.StepAt(0) // call
	cs := s.CallStack()
	if len(cs) != 1 || cs[0] != 1 {
		t.Fatalf("call stack = %v, want [1]", cs)
	}
	cs[0] = 99 // mutating the copy must not touch the state
	if got := s.CallStack(); got[0] != 1 {
		t.Errorf("CallStack aliased internal storage: %v", got)
	}
	s.SetCallStack([]int{4, 7})
	if got := s.CallStack(); len(got) != 2 || got[0] != 4 || got[1] != 7 {
		t.Errorf("SetCallStack = %v, want [4 7]", got)
	}
}

// archCopy is a reference copy of the architectural state the undo log
// covers: registers, the words propProgram touches, and the call stack.
type archCopy struct {
	regs  [isa.NumRegs]int64
	mem   [4]int64
	calls []int
}

// propAddrs are the word addresses propProgram loads from and stores to.
var propAddrs = [4]uint64{0, 8, 16, 4096}

func capture(s *State) archCopy {
	c := archCopy{regs: s.Regs, calls: s.CallStack()}
	for i, a := range propAddrs {
		c.mem[i] = s.Mem().Read(a)
	}
	return c
}

func (c archCopy) equal(o archCopy) bool {
	return c.regs == o.regs && c.mem == o.mem && slices.Equal(c.calls, o.calls)
}

// propProgram is a bag of instructions covering every undo record kind
// (register writes, stores, calls and returns). The property test steps
// arbitrary PCs in it, the way the timing model steps wrong-path code.
func propProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("undo-prop")
	b.Here("main")
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: 3})
	b.Emit(isa.Inst{Op: isa.OpMulI, Rd: 2, Rs1: 1, Imm: 7})
	b.Emit(isa.Inst{Op: isa.OpXor, Rd: 3, Rs1: 3, Rs2: 2})
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: isa.ZeroReg, Rs2: 1, Imm: 0})
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: isa.ZeroReg, Rs2: 3, Imm: 8})
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: isa.ZeroReg, Rs2: 2, Imm: 16})
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: isa.ZeroReg, Rs2: 1, Imm: 4096})
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: 4, Rs1: isa.ZeroReg, Imm: 8})
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "fn")
	b.Emit(isa.Inst{Op: isa.OpNop})
	b.Here("fn")
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestUndoLogProperty interleaves StepAt, Checkpoint, sliding-window
// ReleaseBefore, Rollback (to live and to released snapshots) and CompactTo
// at random, checking every rollback against a reference copy of the state
// taken when its snapshot was. It also checks the released prefix stays
// bounded: the backing log never holds more than 2×live+1 records.
func TestUndoLogProperty(t *testing.T) {
	p := propProgram(t)
	type mark struct {
		sn  Snapshot
		ref archCopy
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(p)
		// window[0] is the release mark: the oldest snapshot that can
		// still be rolled back to. released holds snapshots behind it.
		window := []mark{{s.Checkpoint(), capture(s)}}
		var released []Snapshot
		release := func(k int, compact bool) {
			if compact {
				s.CompactTo(window[k].sn)
			} else {
				s.ReleaseBefore(window[k].sn)
			}
			for _, m := range window[:k] {
				released = append(released, m.sn)
			}
			window = append(window[:0], window[k:]...)
		}
		rollback := func(k int) {
			s.Rollback(window[k].sn)
			window = window[:k+1]
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 50:
				s.StepAt(rng.Intn(len(p.Code)))
				window = append(window, mark{s.Checkpoint(), capture(s)})
			case r < 55:
				window = append(window, mark{s.Checkpoint(), capture(s)})
			case r < 75:
				// Retire the oldest few: slide the window forward.
				release(min(rng.Intn(3)+1, len(window)-1), false)
			case r < 80:
				release(rng.Intn(len(window)), true)
			case r < 95:
				rollback(rng.Intn(len(window)))
			default:
				if len(released) == 0 {
					continue
				}
				// A stale snapshot clamps to the release mark.
				s.Rollback(released[rng.Intn(len(released))])
				window = window[:1]
			}
			if len(window) > 200 {
				release(len(window)-100, false)
			}
			cur := window[len(window)-1]
			if got := capture(s); !got.equal(cur.ref) {
				t.Fatalf("seed %d op %d: state %+v, want %+v", seed, op, got, cur.ref)
			}
			live := int(cur.sn.undoMark - window[0].sn.undoMark)
			if s.UndoLen() != live {
				t.Fatalf("seed %d op %d: UndoLen = %d, want %d", seed, op, s.UndoLen(), live)
			}
			if n := len(s.undo); n > 2*live+1 {
				t.Fatalf("seed %d op %d: backing log holds %d records for %d live", seed, op, n, live)
			}
		}
	}
}

// BenchmarkStepRelease drives the detailed machine's checkpoint window: a
// snapshot per stepped instruction, released once the window is full, the
// way retirement releases it. ns/inst should not grow with the window.
func BenchmarkStepRelease(b *testing.B) {
	p := propProgram(b)
	for _, window := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			s := NewState(p)
			ring := make([]Snapshot, window)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepAt(i % len(p.Code))
				snap := s.Checkpoint()
				if i >= window {
					s.ReleaseBefore(ring[i%window])
				}
				ring[i%window] = snap
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/inst")
		})
	}
}
