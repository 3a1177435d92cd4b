package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/isa"
	"repro/internal/solver"
)

// Fault is a bug condition raised on an execution path, either by the VM
// itself (wild jumps, invalid instructions) or by a registered checker
// vetoing an access. The engine converts faults into bug reports carrying
// the path trace.
type Fault struct {
	Class string // e.g. "memory", "spinlock", "irql", "crash", "leak", "loop"
	Msg   string
	PC    uint32
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s fault at pc=%#x: %s", f.Class, f.PC, f.Msg)
}

// Faultf builds a Fault.
func Faultf(class string, pc uint32, format string, args ...any) *Fault {
	return &Fault{Class: class, PC: pc, Msg: fmt.Sprintf(format, args...)}
}

// Machine interprets d32 driver code symbolically. The driver text runs in
// the symbolic domain; CALLs into the import trap window cross to the
// concrete domain (the simulated kernel) via the APICall hook — the
// selective-symbolic-execution boundary.
//
// A Machine is the *shared* half of the interpreter: the decoded image, the
// symbol table, and the hook wiring, all of which are immutable once
// execution starts, plus fleet-wide statistics kept as atomics. The mutable
// per-worker half is ExecContext: parallel exploration runs one ExecContext
// (with its own Solver) per worker against a single Machine. The Machine's
// own Step/Run/Concretize methods delegate to a default root context, so
// single-threaded users never see the split.
//
// All hooks are optional except APICall (required once the driver calls an
// import). Hooks must be wired before execution begins; during a parallel
// run they are invoked concurrently from every worker, so any state they
// touch beyond the *State they are handed must be thread-safe.
type Machine struct {
	Img    *binimg.Image
	Syms   *expr.SymbolTable
	Solver *solver.Solver // the root context's solver

	// APICall dispatches an import-table call. It may modify s, fork it
	// (returning extra runnable states), or raise a Fault.
	APICall func(s *State, slot int) ([]*State, error)

	// Symbolic-hardware hooks: MMIO window and port I/O.
	ReadDevice  func(s *State, addr uint32, size uint32) *expr.Expr
	WriteDevice func(s *State, addr uint32, size uint32, v *expr.Expr)
	ReadPort    func(s *State, port uint32) *expr.Expr
	WritePort   func(s *State, port uint32, v *expr.Expr)

	// OnMemAccess is consulted for every driver load/store outside the MMIO
	// window. A non-nil error fails the path with a bug.
	OnMemAccess func(s *State, pc, addr, size uint32, write bool, v *expr.Expr) error

	// PinAddress chooses the concrete value for a symbolic effective
	// address. DDT's memory checker installs an adversarial pinner that
	// prefers values proving an out-of-bounds access feasible (the Klee
	// behaviour of checking a symbolic pointer against all objects). When
	// nil, addresses concretize like any other value.
	PinAddress func(s *State, addr *expr.Expr, size uint32, write bool) (uint32, bool)

	// OnBlock is invoked when execution enters a basic block (coverage).
	OnBlock func(s *State, pc uint32)

	// OnFork is invoked after a branch fork with both children.
	OnFork func(parent *State, children []*State, cond *expr.Expr)

	// OnInterruptReturn is invoked after an injected interrupt context is
	// popped (the kernel restores the pre-interrupt IRQL here).
	OnInterruptReturn func(s *State)

	// DisableSuperblocks forces per-instruction dispatch even when a
	// caller steps with a budget (StepSpan). Used by the bit-identity
	// suites and benchmarks to compare the two paths; semantics must be
	// identical either way.
	DisableSuperblocks bool

	// DisableCompiledSpans makes runSpan dispatch through the fastExec
	// switch (re-decoding each instruction per visit) instead of the
	// pre-lowered micro-op table. Both paths are instruction-exact; the
	// bit-identity suites run them against each other.
	DisableCompiledSpans bool

	// DisableTrace starts root states with a nil trace chain, so no trace
	// events are recorded or allocated anywhere on the path (TraceNode
	// methods are nil-safe). Execution semantics are unaffected — a trace
	// is pure observation — which is what lets the fuzz executor run
	// trace-free by default and rematerialize a chain by exact
	// re-execution with tracing on (fuzz.Options.LazyTrace).
	DisableTrace bool

	instrs    []isa.Instr
	decodeErr []error

	// uops[i] is the pre-lowered span micro-op for instruction i: the
	// compiled form of the fastExec dispatch decision, computed once from
	// the immutable image and shared read-only by every worker.
	uops []uop

	// spanLen[i] is the length of the straight-line span starting at
	// instruction index i: the number of consecutive validly-decoded,
	// non-control-flow instructions from i before the next branch, jump,
	// call, return, HLT, or decode error. Derived once from the immutable
	// decoded image in NewMachine and shared read-only by every worker.
	// A span never contains a block entry past its first instruction, so
	// the fast path (runSpan) owes hooks nothing until it ends or bails.
	spanLen []uint32

	nextID atomic.Uint64
	// forkMu serializes ForkState: forking writes the parent (its memory
	// and trace move to fresh overlays), and a pipelined scenario graph
	// can hand one base state to several phases whose workers fork it at
	// the same time.
	forkMu sync.Mutex

	// Stats, shared across every ExecContext of this machine.
	Steps    atomic.Uint64
	Forks    atomic.Uint64
	SymReads atomic.Uint64
	APICalls atomic.Uint64

	root *ExecContext
}

// ExecContext is one worker's execution context: the step loop plus the
// worker-private solver. Contexts of the same Machine share the image,
// hooks, symbol table, and statistics; they do NOT share solver scratch
// (probe RNG, per-solver stats), so each worker decides branch feasibility
// and concretizations independently — typically against one shared
// thread-safe query cache (solver.NewWithCache).
//
// A context may only step one state at a time; a state is bound to the
// context stepping it so hooks and kernel code reached from inside the step
// (which only see the *State) can route solver work to the right worker.
type ExecContext struct {
	M      *Machine
	Solver *solver.Solver

	// pendSteps/pendForks batch the machine-wide atomic counters: the step
	// loop bumps these worker-local fields and flushStats publishes them at
	// every step/span boundary, so the shared cache line is touched once
	// per dispatch instead of once per instruction. Observers that read
	// Machine.Steps from inside a step (the OnBlock coverage clocks) are
	// flushed-to explicitly before the hook fires, so the published value
	// is always exact at every observation point.
	pendSteps uint64
	pendForks uint64
}

// flushStats publishes the context's batched counter deltas to the shared
// machine atomics. Exact-count observation points (hook entry, step return)
// must call this first.
func (c *ExecContext) flushStats() {
	if c.pendSteps != 0 {
		c.M.Steps.Add(c.pendSteps)
		c.pendSteps = 0
	}
	if c.pendForks != 0 {
		c.M.Forks.Add(c.pendForks)
		c.pendForks = 0
	}
}

// NewMachine decodes the image and prepares an interpreter.
func NewMachine(img *binimg.Image, syms *expr.SymbolTable, sol *solver.Solver) *Machine {
	n := len(img.Text) / isa.InstrSize
	m := &Machine{
		Img:       img,
		Syms:      syms,
		Solver:    sol,
		instrs:    make([]isa.Instr, n),
		decodeErr: make([]error, n),
	}
	for i := 0; i < n; i++ {
		m.instrs[i], m.decodeErr[i] = isa.Decode(img.Text[i*isa.InstrSize:])
	}
	// Straight-line span table, computed backwards in one pass: an
	// instruction extends the span of its successor unless it ends a block
	// itself. Control flow (branches, JMP/JR, CALL/CALLR, RET, HLT) and
	// undecodable slots get length 0 and always take the general path.
	m.spanLen = make([]uint32, n)
	for i := n - 1; i >= 0; i-- {
		if m.decodeErr[i] != nil || m.instrs[i].Op.IsControlFlow() {
			continue
		}
		if i == n-1 {
			m.spanLen[i] = 1
		} else {
			m.spanLen[i] = m.spanLen[i+1] + 1
		}
	}
	m.uops = make([]uop, n)
	for i := 0; i < n; i++ {
		if m.decodeErr[i] != nil {
			m.uops[i] = uop{fn: uopGeneral}
			continue
		}
		m.uops[i] = lowerUop(&m.instrs[i])
	}
	m.root = &ExecContext{M: m, Solver: sol}
	return m
}

// NewContext returns a fresh per-worker execution context. A nil solver
// shares the machine's root solver (only valid for sequential use).
func (m *Machine) NewContext(sol *solver.Solver) *ExecContext {
	if sol == nil {
		sol = m.Solver
	}
	return &ExecContext{M: m, Solver: sol}
}

// ctxOf returns the context a state is currently bound to, defaulting to
// the machine's root context. Kernel and checker code that only holds the
// Machine routes through this, so per-worker solvers are honoured even for
// calls made from inside hooks.
func (m *Machine) ctxOf(s *State) *ExecContext {
	if s != nil && s.ctx != nil {
		return s.ctx
	}
	return m.root
}

// SolverFor returns the solver responsible for s: the solver of the worker
// context currently executing it, or the machine's root solver.
func (m *Machine) SolverFor(s *State) *solver.Solver {
	return m.ctxOf(s).Solver
}

// NewRootState allocates the initial state with the image loaded.
func (m *Machine) NewRootState() *State {
	s := NewState(m.newID())
	if m.DisableTrace {
		s.Trace = nil
	}
	s.Mem.WriteBytes(isa.ImageBase, m.Img.Text)
	s.Mem.WriteBytes(m.Img.DataBase(), m.Img.Data)
	// bss is implicitly zero.
	return s
}

func (m *Machine) newID() uint64 {
	return m.nextID.Add(1)
}

// ForkState clones s with a fresh ID (used by kernel annotations that fork
// over alternative API results). Safe to call from any worker.
func (m *Machine) ForkState(s *State) *State {
	// Not batched through ExecContext.pendForks: annotation and invocation
	// forks happen from coordinator threads outside any step dispatch, where
	// no context is guaranteed to flush (or even be exclusively ours).
	m.Forks.Add(1)
	m.forkMu.Lock()
	defer m.forkMu.Unlock()
	return s.Fork(m.newID())
}

// SnapshotState freezes a deep snapshot of s mid-run and returns it. The
// running state continues on a fresh COW overlay, exactly as after a Fork;
// the snapshot is never stepped — it exists to serve ResumeState children.
// Unlike ForkState it does not count toward the fork statistics (a snapshot
// is a replay optimization, not an explored branch), and the snapshot keeps
// the path's loop accounting so resumed children replay exactly as the
// original path would have continued.
func (m *Machine) SnapshotState(s *State) *State {
	snap := s.Fork(m.newID())
	snap.LoopCounts = s.loopCountsCopy()
	// Freeze the snapshot's trace node now, while capture is still
	// single-threaded: every ForkFrozen resume hangs a child off it, and
	// with a shared fabric those resumes run concurrently — the flag must
	// be set before the snapshot is published, not by the resumers.
	if snap.Trace != nil {
		snap.Trace.frozen = true
	}
	return snap
}

// ResumeState clones a frozen snapshot into a fresh runnable state. The
// snapshot itself is not mutated, so any number of executions can resume
// from it without deepening its overlay chain (State.ForkFrozen). The clone
// is rebound to this machine's root context immediately: the snapshot may
// have been recorded by another executor (shared snapshot fabric), and its
// stale ctx must not route solver work before the first Step rebinds it.
func (m *Machine) ResumeState(snap *State) *State {
	s := snap.ForkFrozen(m.newID())
	s.ctx = m.root
	return s
}

// inText reports whether pc addresses a decoded instruction.
func (m *Machine) inText(pc uint32) bool {
	return pc >= isa.ImageBase && pc < isa.ImageBase+uint32(len(m.instrs))*isa.InstrSize &&
		(pc-isa.ImageBase)%isa.InstrSize == 0
}

// Concretize pins a symbolic expression to a concrete value consistent with
// the path constraints, routing solver work to the context bound to s.
func (m *Machine) Concretize(s *State, e *expr.Expr, what string) (uint32, error) {
	return m.ctxOf(s).Concretize(s, e, what)
}

// Concretize pins a symbolic expression to a concrete value consistent with
// the path constraints, records the concretization (so traces can explain
// it and replays reproduce it), and adds the equality constraint. This is
// the paper's on-demand concretization at the symbolic/concrete boundary.
func (c *ExecContext) Concretize(s *State, e *expr.Expr, what string) (uint32, error) {
	if e.IsConst() {
		return e.ConstVal(), nil
	}
	model := c.Solver.Model(s.Constraints)
	if model == nil && len(s.Constraints) > 0 {
		return 0, Faultf("engine", s.PC, "cannot concretize %s: path constraints unsolvable", what)
	}
	val := expr.Eval(e, model)
	s.AddConstraint(expr.Eq(e, expr.Const(val)))
	s.Trace.Append(Event{
		Kind: EvConcretize, Seq: s.ICount, PC: s.PC,
		Val: expr.Const(val), Name: what,
	})
	return val, nil
}

// MarkBlockStart flags that the next step of s begins a basic block
// (entry-point invocation, branch target, post-call resumption).
func (m *Machine) MarkBlockStart(s *State) {
	s.BlockStart = true
}

func (m *Machine) enterBlock(s *State) {
	s.Trace.Append(Event{Kind: EvBlock, Seq: s.ICount, PC: s.PC})
	if m.OnBlock != nil {
		m.OnBlock(s, s.PC)
	}
	s.BlockStart = false
}

// Step executes one instruction of s under the machine's root context (or
// the context s is already bound to). Parallel workers call
// ExecContext.Step directly instead.
func (m *Machine) Step(s *State) ([]*State, error) {
	return m.ctxOf(s).step(s, 1)
}

// StepSpan is Step with an instruction budget: it may execute up to budget
// instructions in one dispatch when the state sits on a straight-line span
// (see runSpan), under the machine's root context.
func (m *Machine) StepSpan(s *State, budget uint64) ([]*State, error) {
	return m.ctxOf(s).step(s, budget)
}

// Step executes one instruction of s and returns the runnable successor
// states. Usually that is s itself; a symbolic branch returns two forked
// children (s is retired); termination returns none, with s.Status and, for
// bugs, the returned Fault explaining why.
//
// A fault left pending on the state by a hook (State.PendFault, e.g. the
// loop checker firing from OnBlock) is surfaced before anything else runs,
// so the fault stays attributed to the exact state that raised it however
// the scheduler interleaves paths.
func (c *ExecContext) Step(s *State) ([]*State, error) {
	return c.step(s, 1)
}

// StepSpan executes at least one and at most budget instructions of s in a
// single dispatch. Callers that interleave per-instruction work (interrupt
// injection instants, path budgets) pass the distance to their next
// decision point; semantics are bit-identical to calling Step budget times
// with no interleaved work. A budget of 0 is treated as 1.
func (c *ExecContext) StepSpan(s *State, budget uint64) ([]*State, error) {
	return c.step(s, budget)
}

func (c *ExecContext) step(s *State, budget uint64) ([]*State, error) {
	if s.Status != StatusRunning {
		return nil, nil
	}
	s.ctx = c
	if f := s.PendFault; f != nil {
		s.PendFault = nil
		s.Status = StatusBug
		return nil, f
	}
	m := c.M
	c.pendSteps++
	defer c.flushStats()

	// Magic return addresses.
	switch s.PC {
	case ExitAddr:
		s.Status = StatusExited
		s.Trace.Append(Event{Kind: EvEntryDone, Seq: s.ICount, Name: s.EntryName})
		return nil, nil
	case IntrRetAddr:
		if !s.PopInterrupt() {
			s.Status = StatusBug
			return nil, Faultf("memory", s.PC, "return to interrupt context with no active interrupt")
		}
		s.Trace.Append(Event{Kind: EvInterruptEnd, Seq: s.ICount})
		if m.OnInterruptReturn != nil {
			m.OnInterruptReturn(s)
		}
		m.MarkBlockStart(s)
		return []*State{s}, nil
	}

	if !m.inText(s.PC) {
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "execution outside driver text (wild jump)")
	}
	idx := (s.PC - isa.ImageBase) / isa.InstrSize
	if err := m.decodeErr[idx]; err != nil {
		s.Status = StatusBug
		return nil, Faultf("memory", s.PC, "invalid instruction: %v", err)
	}

	if s.BlockStart {
		c.flushStats() // OnBlock coverage clocks read Machine.Steps
		m.enterBlock(s)
		if s.PendFault != nil {
			// The block hook raised a fault (loop checker). Per-instruction
			// semantics execute exactly one more instruction before the
			// next dispatch surfaces it — a span must not run past that.
			budget = 1
		}
	}

	if budget > 1 && !m.DisableSuperblocks && m.spanLen[idx] > 1 {
		return c.runSpan(s, idx, budget)
	}

	in := m.instrs[idx]
	s.ICount++
	return c.exec(s, in)
}

// Run steps s until the path stops or maxSteps instructions execute, under
// the machine's root context.
func (m *Machine) Run(s *State, maxSteps uint64) (final *State, forked []*State, fault error) {
	return m.ctxOf(s).Run(s, maxSteps)
}

// Run steps s until the path stops or maxSteps instructions execute,
// following the first successor at every fork. It returns the state the
// path ended on (which may differ from s after forks), the sibling states
// produced by forks (for a scheduler to explore), and the Fault if the path
// ended in a bug.
func (c *ExecContext) Run(s *State, maxSteps uint64) (final *State, forked []*State, fault error) {
	start := s.ICount
	cur := s
	for cur.Status == StatusRunning {
		if cur.ICount-start >= maxSteps {
			cur.Status = StatusKilled
			return cur, forked, nil
		}
		next, err := c.StepSpan(cur, maxSteps-(cur.ICount-start))
		if err != nil {
			return cur, forked, err
		}
		switch len(next) {
		case 0:
			return cur, forked, nil
		case 1:
			cur = next[0]
		default:
			forked = append(forked, next[1:]...)
			cur = next[0]
		}
	}
	return cur, forked, nil
}
