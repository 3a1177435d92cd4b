package core

import (
	"context"
	"sort"

	"repro/internal/kernel"
	"repro/internal/vm"
	"repro/internal/workload"
)

// The engine walks the workload plan (package workload, the Device Path
// Exerciser of §4.3) and lets symbolic execution fan out from each entry
// invocation.

// pipelined reports whether this engine explores cross-phase (no workload
// phase barriers): Options.Pipeline with a real worker pool.
func (e *Engine) pipelined() bool {
	return e.Opts.Pipeline && e.Opts.Workers > 1
}

// TestDriver runs the complete workload against the image and returns the
// bug report. This is the top-level "Test Now button" (§1). ctx cancels
// the session mid-run; Opts.Duration, when set, bounds its wall-clock time.
func (e *Engine) TestDriver(ctx context.Context) (*Report, error) {
	if e.Opts.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Opts.Duration)
		defer cancel()
	}
	if e.pipelined() {
		return e.testDriverPipelined(ctx)
	}
	plan := e.phasePlan()
	// DriverEntry runs unbounded: every success becomes a base of the plan.
	for _, st := range e.enter(&plan[0], e.NewBootState(), 0) {
		e.Sched.Push(st)
	}
	res := e.Explore(ctx, plan[0].Name)
	if len(res.Succeeded) > 0 {
		e.runGraph(ctx, plan, res.Succeeded)
	}
	return e.Report(), nil
}

// phasePlan is the driver's workload plan for this session's scenario.
func (e *Engine) phasePlan() []workload.Phase {
	return workload.Plan(e.Img, e.Opts.Scenario)
}

// enter forks base into phase idx's invocation state(s), tagged with the
// phase index; it does not push them. While an ISR is registered and the
// path's interrupt budget lasts, a second fork takes an interrupt as the
// entry starts. The drain node and entries already running at device level
// (the ISR) get no such sibling. nil means the phase does not apply.
func (e *Engine) enter(p *workload.Phase, base *vm.State, idx int) []*vm.State {
	if !p.Applies(base) {
		return nil
	}
	in := workload.Inputs{K: e.K, Annotations: e.Opts.Annotations}
	fork := func() *vm.State {
		st := e.M.ForkState(base)
		st.Phase = idx
		p.Enter(in, st)
		return st
	}
	st := fork()
	ks := kernel.Of(st)
	if p.Drain || !e.Opts.SymbolicInterrupts || !ks.ISRRegistered || ks.IRQL >= kernel.DeviceLevel || !e.intrBudgetLeft(base) {
		return []*vm.State{st}
	}
	alt := fork()
	chargeIntr(alt)
	return []*vm.State{st, alt}
}

// drainDPCs dispatches pending timer/DPC callbacks at DISPATCH_LEVEL with
// the DPC flag set (where the Intel Pro/100 spinlock bug manifests). A
// driver may hold several queued DPCs — a timer callback plus KDPCs the
// ISR inserted — so the drain runs to a fixpoint: each round pops one DPC
// per state and explores it, until no carried state has work left. States
// whose queue is already empty ride through a round unchanged.
func (e *Engine) drainDPCs(ctx context.Context, p *workload.Phase, idx int, bases []*vm.State) []*vm.State {
	for round := 0; round < workload.MaxDPCRounds; round++ {
		var out []*vm.State
		ran := false
		for _, base := range bases {
			sts := e.enter(p, base, idx)
			if sts == nil {
				out = append(out, base)
				continue
			}
			ran = true
			for _, st := range sts {
				e.Sched.Push(st)
			}
		}
		if !ran {
			return bases
		}
		res := e.Explore(ctx, p.Name)
		for _, s := range res.Succeeded {
			ks := kernel.Of(s)
			ks.InDpc = false
			ks.IRQL = kernel.PassiveLevel
			out = append(out, s)
		}
		if len(out) == 0 {
			return bases
		}
		bases = out
	}
	return bases
}

// runGraph walks the plan under the barriered explorer. Edges only point
// forward, so plan index order is a topological order and a single
// in-order sweep runs every node after all of its predecessors, over the
// union of the states its predecessors routed to it. Node 0 (DriverEntry)
// has already run; bases are its successes. A state leaving the last node,
// matching no edge, or stalled at a failed gate is done.
func (e *Engine) runGraph(ctx context.Context, plan []workload.Phase, bases []*vm.State) {
	in := make([][]*vm.State, len(plan))
	routeGraph(plan, 0, bases, in)
	for i := 1; i < len(plan); i++ {
		if len(in[i]) == 0 {
			continue
		}
		out, ok := e.runGraphNode(ctx, &plan[i], i, in[i])
		if !ok && plan[i].Gate {
			// Gate with zero successes: this subtree of the scenario ends.
			continue
		}
		// A non-gate node with zero successes passes its inputs through.
		routeGraph(plan, i, out, in)
	}
}

// routeGraph sends the states leaving node i along its outgoing edges,
// appending them to each matching target's input list.
func routeGraph(plan []workload.Phase, i int, out []*vm.State, in [][]*vm.State) {
	if plan[i].Succs == nil {
		if i+1 < len(plan) {
			in[i+1] = append(in[i+1], out...)
		}
		return
	}
	for _, s := range out {
		for _, edge := range plan[i].Succs {
			if edge.When == nil || edge.When(s) {
				in[edge.To] = append(in[edge.To], s)
			}
		}
	}
}

// runGraphNode runs one plan node over its input states: invoke, explore,
// carry forward the successes holding the most queued DPCs (they hold the
// continuations the drain must exercise) capped at KeepStates, and
// normalize them so phases do not leak DPC/IRQL context. It returns the
// inputs and false when nothing applied or nothing succeeded. Drain nodes
// run the DPC fixpoint.
func (e *Engine) runGraphNode(ctx context.Context, p *workload.Phase, idx int, bases []*vm.State) ([]*vm.State, bool) {
	if p.Drain {
		return e.drainDPCs(ctx, p, idx, bases), true
	}
	any := false
	for _, base := range bases {
		for _, st := range e.enter(p, base, idx) {
			any = true
			e.Sched.Push(st)
		}
	}
	if !any {
		return bases, false
	}
	res := e.Explore(ctx, p.Name)
	if len(res.Succeeded) == 0 {
		return bases, false
	}
	sort.SliceStable(res.Succeeded, func(i, j int) bool {
		return len(kernel.Of(res.Succeeded[i]).PendingDPCs) > len(kernel.Of(res.Succeeded[j]).PendingDPCs)
	})
	if len(res.Succeeded) > e.Opts.KeepStates {
		res.Succeeded = res.Succeeded[:e.Opts.KeepStates]
	}
	for _, s := range res.Succeeded {
		ks := kernel.Of(s)
		ks.InDpc = false
		ks.IRQL = kernel.PassiveLevel
	}
	return res.Succeeded, true
}
