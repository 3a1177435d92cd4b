package core

import (
	"context"

	"repro/internal/binimg"
	"repro/internal/campaign"
	"repro/internal/exerciser"
	"repro/internal/expr"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/solver"
	"repro/internal/vm"
	"repro/internal/workq"
)

// The pipelined explorer dissolves the workload phase barriers. The
// barriered engine (TestDriver's default path) drains EVERY phase-k path
// before ANY phase-k+1 path starts, so workers idle while the slowest
// Initialize path finishes. Nothing in the paper requires that global
// ordering — only that each individual path respects the phase order — so
// here one persistent worker pool runs over a phase-aware frontier: a path
// that completes phase k immediately seeds its successor invocation into
// phase k+1 (capped at KeepStates promotions per phase), and the scheduler
// weights earlier phases so spare workers pick up later-phase work exactly
// where the barrier used to stall.
//
// The moving parts:
//
//   - phaseSpec reifies the workload (workload.go's imperative phase chain)
//     as data: per phase, an applicability test and an invocation builder.
//   - pipeSeed is a phase-transition work item ("invoke base into phase j"),
//     carried by a workq.Queue — the engine-side consumer the workq package
//     was generalized for: promotions land on the completing worker's own
//     shard (locality), idle workers steal.
//   - pipeLedger is the per-(entry, phase) campaign.Ledger replacing the
//     barriered engine's per-Explore bounds: exited paths are budgeted per
//     phase (MaxPathsPerEntry each), promotions per phase (KeepStates).
//   - pipeRun is the campaign.Frontier policy: workers prefer seeds, then
//     frontier states; the campaign.Runner owns the pool, and the run ends
//     when every phase has drained.
//
// Per-path soundness is unchanged: a state only ever reaches phase k+1 by
// being forked from a base that completed an earlier phase successfully
// (promotion), or by the fallback below. Zero-success fallback: the
// barriered loop passes a phase's input bases through unchanged when no
// invocation succeeds; here, when a non-gate phase drains with zero
// successes, its input bases are re-seeded into the next applicable phase.
// Gate phases (DriverEntry, Initialize) keep their stronger semantics: no
// success means the rest of the workload is not exercised.

// phaseSpec describes one workload phase to both graph walkers (the
// barriered runGraph and the pipelined explorer).
type phaseSpec struct {
	name string
	// gate phases stop the workload when they produce no success.
	gate bool
	// applicable reports whether this phase applies to a base state (the
	// entry point is registered / a DPC is pending).
	applicable func(e *Engine, base *vm.State) bool
	// invoke forks base into this phase's invocation state(s) — including
	// the interrupt-at-entry sibling where the barriered phase loop makes
	// one — tagging each with the phase index. It does not push them.
	invoke func(e *Engine, base *vm.State, phase int) []*vm.State
	// succs are this phase's outgoing scenario-graph edges. nil means
	// linear fallthrough to the next phase in the plan — the shape every
	// pre-graph plan keeps, bit-identically. Edges must point forward
	// (edge.to > this phase's index) so plan order stays a topological
	// order for both walkers.
	succs []phaseEdge
	// drain marks the DPC fixpoint node: a success that still has pending
	// DPCs re-enters this phase instead of moving on.
	drain bool
}

// phaseEdge is one outgoing scenario-graph edge. A nil when matches every
// state; predicates route alternatives (e.g. RemoveDevice only after a
// surprise removal).
type phaseEdge struct {
	to   int
	when func(*Engine, *vm.State) bool
}

// stdPhase builds the standard phase shape shared by every entry point:
// fork the base, prep, invoke with args, plus the symbolic-interrupt
// sibling when an ISR is registered (mirroring Engine.phase).
func stdPhase(name string, gate bool, pcOf func(*kernel.KState) uint32,
	argsOf func(*Engine, *vm.State) []*expr.Expr, prep func(*vm.State)) phaseSpec {

	mk := func(e *Engine, base *vm.State, phase int, pc uint32) *vm.State {
		st := e.M.ForkState(base)
		st.Phase = phase
		if prep != nil {
			prep(st)
		}
		var args []*expr.Expr
		if argsOf != nil {
			args = argsOf(e, st)
		}
		e.K.InvokeSym(st, name, pc, args...)
		return st
	}
	return phaseSpec{
		name: name,
		gate: gate,
		applicable: func(e *Engine, base *vm.State) bool {
			return pcOf(kernel.Of(base)) != 0
		},
		invoke: func(e *Engine, base *vm.State, phase int) []*vm.State {
			pc := pcOf(kernel.Of(base))
			if pc == 0 {
				return nil
			}
			st := mk(e, base, phase, pc)
			out := []*vm.State{st}
			if e.Opts.SymbolicInterrupts && kernel.Of(st).ISRRegistered && name != "ISR" && e.intrBudgetLeft(base) {
				alt := mk(e, base, phase, pc)
				chargeIntr(alt)
				out = append(out, alt)
			}
			return out
		},
	}
}

// dpcPhase dispatches one pending timer/DPC callback at DISPATCH_LEVEL
// (mirroring Engine.drainDPCs; no interrupt sibling there either). The
// drain flag makes successes with a non-empty DPC queue re-enter this
// phase — the pipelined form of the barriered fixpoint drain.
func dpcPhase() phaseSpec {
	return phaseSpec{
		name:  "DPC",
		drain: true,
		applicable: func(e *Engine, base *vm.State) bool {
			return len(kernel.Of(base).PendingDPCs) > 0
		},
		invoke: func(e *Engine, base *vm.State, phase int) []*vm.State {
			if len(kernel.Of(base).PendingDPCs) == 0 {
				return nil
			}
			st := e.M.ForkState(base)
			st.Phase = phase
			sks := kernel.Of(st)
			dpc := sks.TakeDPC()
			sks.IRQL = kernel.DispatchLevel
			sks.InDpc = true
			e.K.InvokeSym(st, "DPC:"+dpc.Label, dpc.FuncPC, expr.Const(dpc.Ctx))
			return []*vm.State{st}
		},
	}
}

// isrPhase delivers a direct device interrupt while otherwise idle.
func isrPhase() phaseSpec {
	return stdPhase("ISR", false,
		func(ks *kernel.KState) uint32 {
			if ks.ISRRegistered {
				return ks.ISRPC
			}
			return 0
		},
		func(e *Engine, s *vm.State) []*expr.Expr {
			return []*expr.Expr{expr.Const(adapterHandle)}
		},
		func(s *vm.State) { kernel.Of(s).IRQL = kernel.DeviceLevel })
}

// phasePlan reifies the driver class's workload as an ordered phase list.
// Phase 0 is always DriverEntry.
//
// This is deliberately a second expression of the workload in workload.go
// (networkWorkload/audioWorkload): the barriered loop's exact push order
// is pinned bit-for-bit by the sequential golden values, and its DPC drain
// mixes pass-through bases with DPC successes in a way a phase-level loop
// expresses but a per-base pipeline handles structurally — so neither side
// can consume the other's form without changing pinned semantics. The two
// MUST be kept in sync: a phase added, reordered, or re-argumented in one
// file must change the other, and TestPipelinedFindsSameBugs is the tripwire.
func (e *Engine) phasePlan() []phaseSpec {
	plan := []phaseSpec{{
		name:       "DriverEntry",
		gate:       true,
		applicable: func(*Engine, *vm.State) bool { return true },
		invoke: func(e *Engine, base *vm.State, phase int) []*vm.State {
			st := e.M.ForkState(base)
			st.Phase = phase
			e.K.Invoke(st, "DriverEntry", e.Img.Entry)
			return []*vm.State{st}
		},
	}}

	handleArg := func(*Engine, *vm.State) []*expr.Expr {
		return []*expr.Expr{expr.Const(adapterHandle)}
	}

	switch e.Img.Device.Class {
	case binimg.ClassNetwork:
		mp := func(ks *kernel.KState) *kernel.MiniportChars {
			if ks.Miniport == nil {
				return &kernel.MiniportChars{}
			}
			return ks.Miniport
		}
		infoArgs := func(concreteOID uint32) func(*Engine, *vm.State) []*expr.Expr {
			return func(e *Engine, s *vm.State) []*expr.Expr {
				var oid *expr.Expr
				if e.Opts.Annotations {
					oid = e.K.FreshSymbol(s, "oid", expr.OriginArgument)
				} else {
					oid = expr.Const(concreteOID)
				}
				buf := e.makeInfoBuffer(s)
				return []*expr.Expr{expr.Const(adapterHandle), oid, expr.Const(buf), expr.Const(64)}
			}
		}
		plan = append(plan,
			stdPhase("Initialize", true,
				func(ks *kernel.KState) uint32 { return mp(ks).InitializePC },
				handleArg, nil),
			stdPhase("Send", false,
				func(ks *kernel.KState) uint32 { return mp(ks).SendPC },
				func(e *Engine, s *vm.State) []*expr.Expr {
					pkt := e.makeSymbolicPacket(s)
					return []*expr.Expr{expr.Const(adapterHandle), expr.Const(pkt)}
				}, nil),
			stdPhase("QueryInformation", false,
				func(ks *kernel.KState) uint32 { return mp(ks).QueryInfoPC },
				infoArgs(kernel.OIDGenSupportedList), nil),
			stdPhase("SetInformation", false,
				func(ks *kernel.KState) uint32 { return mp(ks).SetInfoPC },
				infoArgs(kernel.OIDGenCurrentPacketFil), nil),
			isrPhase(),
			dpcPhase(),
			stdPhase("Halt", false,
				func(ks *kernel.KState) uint32 { return mp(ks).HaltPC },
				handleArg, nil),
		)
	case binimg.ClassAudio:
		au := func(ks *kernel.KState) *kernel.AudioChars {
			if ks.Audio == nil {
				return &kernel.AudioChars{}
			}
			return ks.Audio
		}
		plan = append(plan,
			stdPhase("Initialize", true,
				func(ks *kernel.KState) uint32 { return au(ks).InitializePC },
				handleArg, nil),
			stdPhase("Play", false,
				func(ks *kernel.KState) uint32 { return au(ks).PlayPC },
				func(e *Engine, s *vm.State) []*expr.Expr {
					buf := e.makeAudioBuffer(s)
					return []*expr.Expr{expr.Const(adapterHandle), expr.Const(buf), expr.Const(256)}
				}, nil),
			isrPhase(),
			dpcPhase(),
			stdPhase("Stop", false,
				func(ks *kernel.KState) uint32 { return au(ks).StopPC },
				handleArg, nil),
			stdPhase("Halt", false,
				func(ks *kernel.KState) uint32 { return au(ks).HaltPC },
				handleArg, nil),
		)
	case binimg.ClassStorage:
		plan = append(plan, e.storagePhases(handleArg)...)
	}
	return plan
}

// scenarioKind selects the workload scenario: an explicit Options.Scenario
// wins; otherwise storage-class drivers default to the PnP/power scenario
// graph and every other class to its linear plan (which "pnp" does not
// change either — only storage defines PnP/power phases today).
func (e *Engine) scenarioKind() string {
	if e.Opts.Scenario != "" {
		return e.Opts.Scenario
	}
	if e.Img.Device.Class == binimg.ClassStorage {
		return ScenarioPnP
	}
	return ScenarioLinear
}

// storagePhases builds the storage-class workload. Under ScenarioLinear it
// is the familiar straight line (Initialize, Read, Write, ISR, DPC, Halt).
// Under ScenarioPnP it is a scenario graph layering the PnP/power
// alternatives of a real OS onto that data path:
//
//	0 DriverEntry ─ 1 Initialize ─ 2 Read ─ 3 Write ─ 4 ISR ─┬─ 5 CancelIo ──────────┐
//	                                                         ├─ 6 Suspend ─ 7 Resume ┤
//	                                                         └─ 8 SurpriseRemoval ───┤
//	                                                  ┌──────────────────────────────┘
//	                                                  9 DPC ─┬─(removed)─ 10 RemoveDevice ─ 11 Halt
//	                                                         └─(else)──────────────────────── Halt
//
// CancelIo's interrupt-at-entry sibling is the IRP-cancellation-vs-ISR
// race; SurpriseRemoval flips the device to removed (all further hardware
// reads return all-ones) BEFORE invoking the PnP handler, exactly as a
// yanked card behaves; the DPC drain after each alternative is where
// completion callbacks touch whatever the alternative left behind.
func (e *Engine) storagePhases(handleArg func(*Engine, *vm.State) []*expr.Expr) []phaseSpec {
	sc := func(ks *kernel.KState) *kernel.StorageChars {
		if ks.Storage == nil {
			return &kernel.StorageChars{}
		}
		return ks.Storage
	}
	blockArgs := func(e *Engine, s *vm.State) []*expr.Expr {
		buf := e.makeStorageBuffer(s)
		return []*expr.Expr{expr.Const(adapterHandle), expr.Const(buf), expr.Const(0x80)}
	}
	pnpArgs := func(minor uint32) func(*Engine, *vm.State) []*expr.Expr {
		return func(e *Engine, s *vm.State) []*expr.Expr {
			return []*expr.Expr{expr.Const(adapterHandle), expr.Const(minor)}
		}
	}
	powerArgs := func(state uint32) func(*Engine, *vm.State) []*expr.Expr {
		return func(e *Engine, s *vm.State) []*expr.Expr {
			return []*expr.Expr{expr.Const(adapterHandle), expr.Const(kernel.IrpMnSetPower), expr.Const(state)}
		}
	}

	phases := []phaseSpec{
		stdPhase("Initialize", true,
			func(ks *kernel.KState) uint32 { return sc(ks).InitializePC },
			handleArg, nil),
		stdPhase("Read", false,
			func(ks *kernel.KState) uint32 { return sc(ks).ReadPC },
			blockArgs, nil),
		stdPhase("Write", false,
			func(ks *kernel.KState) uint32 { return sc(ks).WritePC },
			blockArgs, nil),
		isrPhase(),
	}
	if e.scenarioKind() != ScenarioPnP {
		return append(phases,
			dpcPhase(),
			stdPhase("Halt", false,
				func(ks *kernel.KState) uint32 { return sc(ks).HaltPC },
				handleArg, nil),
		)
	}
	phases = append(phases,
		stdPhase("CancelIo", false, // 5
			func(ks *kernel.KState) uint32 { return sc(ks).CancelPC },
			handleArg, nil),
		stdPhase("Suspend", false, // 6
			func(ks *kernel.KState) uint32 { return sc(ks).PowerPC },
			powerArgs(kernel.PowerDeviceD3), nil),
		stdPhase("Resume", false, // 7
			func(ks *kernel.KState) uint32 { return sc(ks).PowerPC },
			powerArgs(kernel.PowerDeviceD0), nil),
		stdPhase("SurpriseRemoval", false, // 8
			func(ks *kernel.KState) uint32 { return sc(ks).PnpPC },
			pnpArgs(kernel.IrpMnSurpriseRemoval),
			func(s *vm.State) {
				// The card is gone before the driver hears about it.
				hw.Of(s).Removed = true
				kernel.Of(s).Removed = true
			}),
		dpcPhase(), // 9
		stdPhase("RemoveDevice", false, // 10
			func(ks *kernel.KState) uint32 { return sc(ks).PnpPC },
			pnpArgs(kernel.IrpMnRemoveDevice), nil),
		stdPhase("Halt", false, // 11
			func(ks *kernel.KState) uint32 { return sc(ks).HaltPC },
			handleArg, nil),
	)
	removed := func(e *Engine, s *vm.State) bool { return kernel.Of(s).Removed }
	notRemoved := func(e *Engine, s *vm.State) bool { return !kernel.Of(s).Removed }
	// Indices below are plan indices (this slice is appended after the
	// DriverEntry phase 0, so slice index k is plan index k+1).
	phases[3].succs = []phaseEdge{{to: 5}, {to: 6}, {to: 8}} // ISR → alternatives
	phases[4].succs = []phaseEdge{{to: 9}}                   // CancelIo → DPC
	phases[5].succs = []phaseEdge{{to: 7}}                   // Suspend → Resume
	phases[6].succs = []phaseEdge{{to: 9}}                   // Resume → DPC
	phases[7].succs = []phaseEdge{{to: 9}}                   // SurpriseRemoval → DPC
	phases[8].succs = []phaseEdge{{to: 10, when: removed}, {to: 11, when: notRemoved}}
	phases[9].succs = []phaseEdge{{to: 11}} // RemoveDevice → Halt
	return phases
}

// phaseRanks computes each phase's scheduling rank — its longest-path
// depth from DriverEntry. Edges only point forward, so one in-order sweep
// relaxes every edge after its source is final. On a linear plan ranks
// equal plan indices.
func phaseRanks(plan []phaseSpec) []int {
	ranks := make([]int, len(plan))
	for i, sp := range plan {
		if sp.succs == nil {
			if i+1 < len(plan) && ranks[i+1] < ranks[i]+1 {
				ranks[i+1] = ranks[i] + 1
			}
			continue
		}
		for _, edge := range sp.succs {
			if ranks[edge.to] < ranks[i]+1 {
				ranks[edge.to] = ranks[i] + 1
			}
		}
	}
	return ranks
}

// pipeSeed is one phase-transition work item: invoke base into phase.
type pipeSeed struct {
	base  *vm.State
	phase int
}

// pipeLedger is one phase's campaign budget ledger plus the pipeline's own
// phase bookkeeping, all guarded by the runner's coordinator lock.
type pipeLedger struct {
	campaign.Ledger
	spec phaseSpec

	// bases are this phase's input states, kept for the zero-success
	// fallback (bounded: promotions into a phase are KeepStates-capped).
	bases []*vm.State

	// Drained counts drain-phase re-entries (successes that still held
	// pending DPCs and were re-seeded into this same phase); bounded
	// separately from Promoted so the fixpoint never starves promotion.
	Drained int

	// PromotedDPC counts extra promotions granted to successes that carry
	// pending DPCs after the ordinary Promoted quota is spent. The
	// barriered loop SORTS a phase's successes by pending-DPC count before
	// capping at KeepStates, guaranteeing DPC-carrying states survive into
	// the drain; the pipelined explorer promotes in completion order and
	// would otherwise spend its whole quota on DPC-less fast paths and
	// never seed the drain phase at all.
	PromotedDPC int
}

// pipeItem is one unit of pipelined work: either a seed to expand or a
// frontier state to run. The executor fills the output half (out / res)
// and Retire folds it into the ledgers.
type pipeItem struct {
	seed *pipeSeed
	st   *vm.State

	out []*vm.State // invocation states produced by a seed expansion
	res PhaseResult // path result produced by running st
}

// pipeRun is the pipelined explorer's campaign.Frontier: the phase-aware
// work-selection policy over one campaign.Runner-owned worker pool.
type pipeRun struct {
	e       *Engine
	r       *campaign.Runner[*pipeItem]
	phases  []*pipeLedger
	ledgers []*campaign.Ledger // the campaign view of phases, same order
	seeds   *workq.Queue[pipeSeed]
	ectxs   []*vm.ExecContext
	// perPaths counts retired paths per worker (seeds excluded) for the
	// debug reporter; slot w is only touched by worker w.
	perPaths []int
}

// testDriverPipelined is TestDriver without phase barriers: one persistent
// campaign.Runner pool over the phase-aware frontier, from DriverEntry to
// Halt.
func (e *Engine) testDriverPipelined(ctx context.Context) (*Report, error) {
	plan := e.phasePlan()
	if e.Opts.Heuristic == nil {
		// Phase-weighted pick over the mixed-phase frontier. Scenario
		// graphs weight by depth rank, not list position: alternative
		// branches at equal depth compete fairly (on a linear plan ranks
		// equal indices, so this is the original phase-weighted pick).
		e.Sched.SetHeuristic(exerciser.NewPhaseRankMinBlockCount(e.Sched.Counts(), phaseRanks(plan)))
	}
	p := &pipeRun{e: e, seeds: workq.New[pipeSeed](e.Opts.Workers)}
	for _, sp := range plan {
		l := &pipeLedger{spec: sp}
		l.Name = sp.name
		p.phases = append(p.phases, l)
		p.ledgers = append(p.ledgers, &l.Ledger)
	}
	p.ectxs = make([]*vm.ExecContext, e.Opts.Workers)
	for w := range p.ectxs {
		p.ectxs[w] = e.M.NewContext(solver.NewWithCache(e.cache))
	}
	p.perPaths = make([]int, e.Opts.Workers)
	p.r = campaign.NewRunner[*pipeItem](
		campaign.Options{Workers: e.Opts.Workers, StopAtFirstBug: e.Opts.StopAtFirstBug},
		p, p.exec)
	p.r.BindFindings(e.findings)
	e.pipe = p

	p.enqueueSeed(0, e.NewBootState(), 0)
	p.r.Run(ctx)
	e.pipe = nil

	e.mu.Lock()
	e.retireSolvers(p.ectxs)
	e.mu.Unlock()
	dbgPhases.workerPaths(p.perPaths)

	// A StopAtFirstBug (or canceled) stop can leave frontier states behind;
	// abandon them exactly as the barriered engine abandons an over-budget
	// frontier.
	for {
		st := e.Sched.Pop()
		if st == nil {
			break
		}
		st.Status = vm.StatusKilled
	}

	e.mu.Lock()
	for _, l := range p.phases {
		e.phaseStats = append(e.phaseStats, PhaseStat{
			Name:         l.spec.name,
			Exited:       l.Exited,
			Succeeded:    l.Succeeded,
			Promoted:     l.Promoted,
			SeedsIn:      l.SeedsIn,
			PeakInFlight: l.PeakInFlight,
			PeakQueued:   l.PeakQueued,
		})
	}
	e.mu.Unlock()
	return e.Report(), nil
}

// exec runs one work item outside the coordinator lock: expand a seed into
// its invocation states, or step a frontier state to completion.
func (p *pipeRun) exec(w int, it *pipeItem) {
	switch {
	case it.seed != nil:
		it.out = p.phases[it.seed.phase].spec.invoke(p.e, it.seed.base, it.seed.phase)
	case it.st != nil:
		p.e.runPath(p.ectxs[w], it.st, p.phases[it.st.Phase].spec.name, &it.res)
		p.perPaths[w]++
	}
}

// Next hands the worker its next work item: seeds first (they create work
// and are shard-local), then frontier states. Called under the runner's
// coordinator lock.
func (p *pipeRun) Next(w int) (*pipeItem, campaign.Verdict) {
	if s, ok := p.seeds.Pop(w); ok {
		l := p.phases[s.phase]
		l.PendingSeeds--
		l.Expanding++
		return &pipeItem{seed: &s}, campaign.Dispatch
	}
	for {
		st := p.e.Sched.Pop()
		if st == nil {
			break
		}
		l := p.phases[st.Phase]
		l.Queued--
		if l.Exited >= p.e.Opts.MaxPathsPerEntry {
			// Per-(entry, phase) path budget exhausted: abandon the rest
			// of this phase's frontier (coverage loss, never
			// unsoundness) — the barriered engine's post-Explore kill.
			st.Status = vm.StatusKilled
			continue
		}
		l.BeginFlight()
		return &pipeItem{st: st}, campaign.Dispatch
	}
	return nil, campaign.Drained
}

// Retire folds one completed item into the ledgers. Called under the
// runner's coordinator lock.
func (p *pipeRun) Retire(w int, it *pipeItem) {
	switch {
	case it.seed != nil:
		p.seedExpanded(w, it.seed.phase, it.out)
	case it.st != nil:
		p.pathDone(w, it.st, &it.res)
	}
}

// Idle is consulted when the frontier is drained and nothing is in flight:
// advance the drain cascade (which may fire a zero-success fallback) and
// end the campaign once every phase is done. Called under the runner's
// coordinator lock.
func (p *pipeRun) Idle(w int) bool {
	p.reap(w)
	return campaign.AllDone(p.ledgers)
}

// enqueueSeed queues "invoke base into phase" on the worker's own workq
// shard and records base as a fallback input of that phase. Caller holds
// the coordinator lock (or the pool has not started yet).
func (p *pipeRun) enqueueSeed(w int, base *vm.State, phase int) {
	l := p.phases[phase]
	l.SeedsIn++
	l.PendingSeeds++
	l.bases = append(l.bases, base)
	if h := p.e.testOnSeed; h != nil {
		h(base, phase)
	}
	p.seeds.Push(w, pipeSeed{base: base, phase: phase})
}

// seedOnward promotes base past fromPhase along the plan's edges into
// every successor phase that applies to it. Non-applicable phases are
// skipped through via their own edges — except gates: a gate phase that
// does not apply (e.g. a network driver that never registered an
// Initialize handler) ends the workload for this base, exactly as the
// barriered loop's "!initialized" early return refuses to exercise the
// data path on an uninitialized adapter. On a linear plan (nil succs
// everywhere) this reduces exactly to the old walk: first applicable
// phase wins, stop at a non-applicable gate. Caller holds the coordinator
// lock.
func (p *pipeRun) seedOnward(w int, base *vm.State, fromPhase int) {
	p.seedAlong(w, base, fromPhase, make(map[int]bool))
}

// seedAlong routes base along phase i's outgoing edges (nil succs = linear
// fallthrough). The visited set dedupes skip-through on diamond shapes —
// two alternatives converging on the same DPC node must seed it once.
func (p *pipeRun) seedAlong(w int, base *vm.State, i int, visited map[int]bool) {
	sp := p.phases[i].spec
	if sp.succs == nil {
		if i+1 < len(p.phases) {
			p.seedInto(w, base, i+1, visited)
		}
		return
	}
	for _, edge := range sp.succs {
		if edge.when == nil || edge.when(p.e, base) {
			p.seedInto(w, base, edge.to, visited)
		}
	}
}

// seedInto seeds base into phase j if it applies, else skips through j's
// own edges (gates end the walk instead).
func (p *pipeRun) seedInto(w int, base *vm.State, j int, visited map[int]bool) {
	if visited[j] {
		return
	}
	visited[j] = true
	if p.phases[j].spec.applicable(p.e, base) {
		p.enqueueSeed(w, base, j)
		return
	}
	if p.phases[j].spec.gate {
		return
	}
	p.seedAlong(w, base, j, visited)
}

// seedExpanded pushes a seed's invocation states into the frontier and
// retires the expansion. Caller holds the coordinator lock.
func (p *pipeRun) seedExpanded(w, phase int, states []*vm.State) {
	l := p.phases[phase]
	l.Expanding--
	for _, st := range states {
		if p.e.Sched.Push(st) {
			l.AddQueued(1)
		}
	}
	p.reap(w)
}

// pushForked accounts a mid-path fork landing in the frontier (called via
// Engine.pushState from a worker's runPath, outside the coordinator lock).
func (p *pipeRun) pushForked(n *vm.State) {
	p.r.Locked(func() {
		if p.e.Sched.Push(n) {
			p.phases[n.Phase].AddQueued(1)
		}
	})
}

// pathDone retires one explored path: budget accounting, promotion of a
// success into the next phase (KeepStates-capped, on the completing
// worker's shard), and the drain cascade. Caller holds the coordinator
// lock.
func (p *pipeRun) pathDone(w int, st *vm.State, res *PhaseResult) {
	l := p.phases[st.Phase]
	l.InFlight--
	l.Exited += res.Exited
	// The completed state is the tail of runPath's depth-first descent —
	// a fork descendant of st in the same phase — not necessarily st.
	done := st
	success := len(res.Succeeded) > 0
	if success {
		done = res.Succeeded[0]
		l.Succeeded++
	}
	if h := p.e.testOnPathDone; h != nil {
		h(done, st.Phase, success)
	}
	hasDPCs := len(kernel.Of(done).PendingDPCs) > 0
	switch {
	case success && l.spec.drain && hasDPCs &&
		l.Drained < p.e.Opts.KeepStates*maxDPCRounds:
		// Drain phase with work left: re-enter the same phase (the
		// pipelined form of drainDPCs' fixpoint rounds). Not charged to
		// Promoted — the fixpoint must not eat the forward budget.
		l.Drained++
		ks := kernel.Of(done)
		ks.InDpc = false
		ks.IRQL = kernel.PassiveLevel
		p.enqueueSeed(w, done, st.Phase)
	case success && (l.Promoted < p.e.Opts.KeepStates ||
		(hasDPCs && l.PromotedDPC < p.e.Opts.KeepStates)):
		if l.Promoted < p.e.Opts.KeepStates {
			l.Promoted++
		} else {
			l.PromotedDPC++
		}
		// Promoted bases must not leak DPC/IRQL context into the next
		// phase (the barriered loop normalizes carried states the same way).
		ks := kernel.Of(done)
		ks.InDpc = false
		ks.IRQL = kernel.PassiveLevel
		p.seedOnward(w, done, st.Phase)
	}
	p.reap(w)
}

// reap advances the drain cascade: phases complete strictly in order
// (promotion only flows forward), so walk from the front and mark every
// already-done-prefixed phase with no remaining activity as done. A
// non-gate phase that drains with zero successes passes its input bases
// through to the next applicable phase — the barriered loop's fallback.
// Caller holds the coordinator lock.
func (p *pipeRun) reap(w int) {
	for i, l := range p.phases {
		if l.Done {
			continue
		}
		if l.Activity() > 0 {
			// Not drained; later phases can still be seeded by this one.
			return
		}
		l.Done = true
		dbgPhases.printf("pipeline phase %-20s drained: exited=%-4d succ=%-3d promoted=%d\n",
			l.spec.name, l.Exited, l.Succeeded, l.Promoted)
		dbgPhases.gauges("pipeline", p.gaugeRows())
		if !l.spec.gate && l.SeedsIn > 0 && l.Succeeded == 0 {
			for _, b := range l.bases {
				p.seedOnward(w, b, i)
			}
		}
		// Gate with zero successes: nothing seeds onward; the remaining
		// phases drain empty through this same cascade.
	}
}

// gaugeRows snapshots the per-phase occupancy for the debug reporter.
// Caller holds the coordinator lock.
func (p *pipeRun) gaugeRows() []phaseGauge {
	rows := make([]phaseGauge, 0, len(p.phases))
	for _, l := range p.phases {
		rows = append(rows, phaseGauge{
			Name:     l.spec.name,
			Queued:   l.Queued + l.PendingSeeds,
			InFlight: l.InFlight + l.Expanding,
			Exited:   l.Exited,
		})
	}
	return rows
}
