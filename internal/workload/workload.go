// Package workload is DDT's Device Path Exerciser (§4.3) as data: the one
// plan of entry-point invocations the OS would make on a driver — load,
// initialize, exercise the data path (one packet / one playback / one block
// transfer, §5.2), query and set driver information, deliver an interrupt,
// drain DPCs, halt — plus the argument builders that feed those entries.
//
// Three walkers read the plan: the barriered symbolic engine and the
// pipelined one (package core) fan every phase out over symbolic states,
// and the fuzz executor (package fuzz) walks one concrete path through it.
// The trace replayer uses the argument builders. Every injected value is
// minted through kernel.Kernel.FreshSymbol, so the same builder yields a
// fresh symbol in the engine and a feed or trace word under a
// SymbolPolicy, at the same sites in the same order.
package workload

import (
	"fmt"

	"repro/internal/binimg"
	"repro/internal/expr"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// AdapterHandle is the opaque per-adapter context the kernel hands to
// every entry point.
const AdapterHandle uint32 = 0x7000_0001

// MaxDPCRounds bounds the DPC drain: a DPC body may itself queue another
// DPC, and an unbounded drain would never terminate on such a driver.
// Eight rounds covers every corpus driver while still converging when a
// callback re-queues itself.
const MaxDPCRounds = 8

// The Send packet's length is injected but constrained to
// [MinPacketLen, MaxPacketLen]: an Ethernet header at least, the payload
// buffer at most.
const (
	MinPacketLen = 14
	MaxPacketLen = 64
)

// Scenario values for Plan.
const (
	ScenarioLinear = "linear"
	ScenarioPnP    = "pnp"
)

// Inputs is how argument builders mint the values they inject.
type Inputs struct {
	// K mints every injected value through FreshSymbol.
	K *kernel.Kernel
	// Annotations turns on the concrete-to-symbolic conversion hints
	// (§3.4). Without them entry arguments stay concrete.
	Annotations bool
}

// Phase is one node of the workload plan.
type Phase struct {
	Name string
	// Gate phases end the workload when they do not succeed: the OS only
	// exercises an adapter that loaded and initialized.
	Gate bool
	// Drain marks the DPC node: it dispatches pending DPCs at
	// DISPATCH_LEVEL, up to MaxDPCRounds, instead of calling an entry.
	Drain bool
	// PC looks the entry point up in the kernel state; 0 means the driver
	// did not register it. Nil on the drain node.
	PC func(ks *kernel.KState) uint32
	// Args builds the entry's arguments on the invocation state.
	Args func(in Inputs, s *vm.State) []*expr.Expr
	// Prep adjusts the invocation state before the arguments are built.
	Prep func(s *vm.State)
	// Succs are the outgoing edges. Nil means fall through to the next
	// node. Edges point forward, so plan order is a topological order.
	Succs []Edge
}

// Edge is one outgoing scenario-graph edge. A nil When matches every state.
type Edge struct {
	To   int
	When func(s *vm.State) bool
}

// Applies reports whether the phase has an entry to call on s: the entry
// is registered, or a DPC is pending on the drain node.
func (p *Phase) Applies(s *vm.State) bool {
	if p.Drain {
		return len(kernel.Of(s).PendingDPCs) > 0
	}
	return p.PC(kernel.Of(s)) != 0
}

// Enter invokes the phase's entry on s, which Applies must accept, and
// returns the entry's name. On the drain node that is the next pending DPC.
func (p *Phase) Enter(in Inputs, s *vm.State) string {
	ks := kernel.Of(s)
	if p.Drain {
		dpc := ks.TakeDPC()
		ks.IRQL = kernel.DispatchLevel
		ks.InDpc = true
		name := "DPC:" + dpc.Label
		in.K.InvokeSym(s, name, dpc.FuncPC, expr.Const(dpc.Ctx))
		return name
	}
	pc := p.PC(ks)
	in.K.InvokeSym(s, p.Name, pc, p.Prepare(in, s)...)
	return p.Name
}

// Prepare runs Prep and builds the arguments on s.
func (p *Phase) Prepare(in Inputs, s *vm.State) []*expr.Expr {
	if p.Prep != nil {
		p.Prep(s)
	}
	if p.Args == nil {
		return nil
	}
	return p.Args(in, s)
}

// Plan returns the workload for the image's device class. Node 0 is always
// DriverEntry. scenario "" picks the class default: the PnP/power scenario
// graph for storage drivers, the linear plan otherwise. ScenarioPnP on a
// class without PnP/power handlers gives its linear plan.
func Plan(img *binimg.Image, scenario string) []Phase {
	entry := img.Entry
	plan := []Phase{{
		Name: "DriverEntry",
		Gate: true,
		PC:   func(*kernel.KState) uint32 { return entry },
	}}
	switch img.Device.Class {
	case binimg.ClassNetwork:
		mp := func(f func(*kernel.MiniportChars) uint32) func(*kernel.KState) uint32 {
			return func(ks *kernel.KState) uint32 {
				if ks.Miniport == nil {
					return 0
				}
				return f(ks.Miniport)
			}
		}
		plan = append(plan,
			Phase{Name: "Initialize", Gate: true, PC: mp(func(m *kernel.MiniportChars) uint32 { return m.InitializePC }), Args: handleArgs},
			Phase{Name: "Send", PC: mp(func(m *kernel.MiniportChars) uint32 { return m.SendPC }), Args: sendArgs},
			// Query/SetInformation take a fully symbolic OID: the
			// unexpected-OID crashes of Table 2 need exactly this.
			Phase{Name: "QueryInformation", PC: mp(func(m *kernel.MiniportChars) uint32 { return m.QueryInfoPC }), Args: infoArgs(kernel.OIDGenSupportedList)},
			Phase{Name: "SetInformation", PC: mp(func(m *kernel.MiniportChars) uint32 { return m.SetInfoPC }), Args: infoArgs(kernel.OIDGenCurrentPacketFil)},
			isrPhase(),
			dpcPhase(),
			Phase{Name: "Halt", PC: mp(func(m *kernel.MiniportChars) uint32 { return m.HaltPC }), Args: handleArgs},
		)
	case binimg.ClassAudio:
		au := func(f func(*kernel.AudioChars) uint32) func(*kernel.KState) uint32 {
			return func(ks *kernel.KState) uint32 {
				if ks.Audio == nil {
					return 0
				}
				return f(ks.Audio)
			}
		}
		plan = append(plan,
			Phase{Name: "Initialize", Gate: true, PC: au(func(a *kernel.AudioChars) uint32 { return a.InitializePC }), Args: handleArgs},
			// Play a small sound: the paper's audio workload (§5.2).
			Phase{Name: "Play", PC: au(func(a *kernel.AudioChars) uint32 { return a.PlayPC }), Args: playArgs},
			isrPhase(),
			dpcPhase(),
			Phase{Name: "Stop", PC: au(func(a *kernel.AudioChars) uint32 { return a.StopPC }), Args: handleArgs},
			Phase{Name: "Halt", PC: au(func(a *kernel.AudioChars) uint32 { return a.HaltPC }), Args: handleArgs},
		)
	case binimg.ClassStorage:
		plan = append(plan, storagePhases(scenario != ScenarioLinear)...)
	}
	return plan
}

// isrPhase delivers a direct device interrupt while otherwise idle.
func isrPhase() Phase {
	return Phase{
		Name: "ISR",
		PC: func(ks *kernel.KState) uint32 {
			if ks.ISRRegistered {
				return ks.ISRPC
			}
			return 0
		},
		Args: handleArgs,
		Prep: func(s *vm.State) { kernel.Of(s).IRQL = kernel.DeviceLevel },
	}
}

// dpcPhase drains queued timer callbacks and KDPCs at DISPATCH_LEVEL with
// the DPC flag set (where the Intel Pro/100 spinlock bug manifests).
func dpcPhase() Phase { return Phase{Name: "DPC", Drain: true} }

// storagePhases builds the storage-class workload after DriverEntry. The
// linear form is the straight data path (Initialize, Read, Write, ISR, DPC,
// Halt). The PnP form is a scenario graph layering the PnP/power
// alternatives of a real OS onto that data path:
//
//	0 DriverEntry ─ 1 Initialize ─ 2 Read ─ 3 Write ─ 4 ISR ─┬─ 8 SurpriseRemoval ───┐
//	                                                         ├─ 6 Suspend ─ 7 Resume ┤
//	                                                         └─ 5 CancelIo ──────────┤
//	                                                  ┌──────────────────────────────┘
//	                                                  9 DPC ─┬─(removed)─ 10 RemoveDevice ─ 11 Halt
//	                                                         └─(else)──────────────────────── Halt
//
// CancelIo's interrupt-at-entry sibling is the IRP-cancellation-vs-ISR
// race; SurpriseRemoval flips the device to removed (all further hardware
// reads return all-ones) BEFORE invoking the PnP handler, exactly as a
// yanked card behaves; the DPC drain after each alternative is where
// completion callbacks touch whatever the alternative left behind. A
// single-path walker picks among the ISR's edges in the listed order.
func storagePhases(pnp bool) []Phase {
	sc := func(f func(*kernel.StorageChars) uint32) func(*kernel.KState) uint32 {
		return func(ks *kernel.KState) uint32 {
			if ks.Storage == nil {
				return 0
			}
			return f(ks.Storage)
		}
	}
	halt := Phase{Name: "Halt", PC: sc(func(c *kernel.StorageChars) uint32 { return c.HaltPC }), Args: handleArgs}
	phases := []Phase{
		{Name: "Initialize", Gate: true, PC: sc(func(c *kernel.StorageChars) uint32 { return c.InitializePC }), Args: handleArgs},
		{Name: "Read", PC: sc(func(c *kernel.StorageChars) uint32 { return c.ReadPC }), Args: blockArgs},
		{Name: "Write", PC: sc(func(c *kernel.StorageChars) uint32 { return c.WritePC }), Args: blockArgs},
		isrPhase(),
	}
	if !pnp {
		return append(phases, dpcPhase(), halt)
	}
	pnpPC := sc(func(c *kernel.StorageChars) uint32 { return c.PnpPC })
	powerPC := sc(func(c *kernel.StorageChars) uint32 { return c.PowerPC })
	removed := func(s *vm.State) bool { return kernel.Of(s).Removed }
	notRemoved := func(s *vm.State) bool { return !kernel.Of(s).Removed }
	// Plan indices: this slice follows DriverEntry, so slice index k is
	// plan index k+1.
	phases[3].Succs = []Edge{{To: 8}, {To: 6}, {To: 5}}
	return append(phases,
		Phase{Name: "CancelIo", PC: sc(func(c *kernel.StorageChars) uint32 { return c.CancelPC }), Args: handleArgs, // 5
			Succs: []Edge{{To: 9}}},
		Phase{Name: "Suspend", PC: powerPC, Args: powerArgs(kernel.PowerDeviceD3)}, // 6 → 7
		Phase{Name: "Resume", PC: powerPC, Args: powerArgs(kernel.PowerDeviceD0), // 7
			Succs: []Edge{{To: 9}}},
		Phase{Name: "SurpriseRemoval", PC: pnpPC, Args: pnpArgs(kernel.IrpMnSurpriseRemoval), // 8
			Prep: func(s *vm.State) {
				// The card is gone before the driver hears about it.
				hw.Of(s).Removed = true
				kernel.Of(s).Removed = true
			}},
		Phase{Name: "DPC", Drain: true, // 9
			Succs: []Edge{{To: 10, When: removed}, {To: 11, When: notRemoved}}},
		Phase{Name: "RemoveDevice", PC: pnpPC, Args: pnpArgs(kernel.IrpMnRemoveDevice)}, // 10 → 11
		halt, // 11
	)
}

func handleArgs(Inputs, *vm.State) []*expr.Expr {
	return []*expr.Expr{expr.Const(AdapterHandle)}
}

func pnpArgs(minor uint32) func(Inputs, *vm.State) []*expr.Expr {
	return func(Inputs, *vm.State) []*expr.Expr {
		return []*expr.Expr{expr.Const(AdapterHandle), expr.Const(minor)}
	}
}

func powerArgs(state uint32) func(Inputs, *vm.State) []*expr.Expr {
	return func(Inputs, *vm.State) []*expr.Expr {
		return []*expr.Expr{expr.Const(AdapterHandle), expr.Const(kernel.IrpMnSetPower), expr.Const(state)}
	}
}

// kernelBuffer allocates a kernel-owned parameter buffer: the driver must
// not free it. It returns 0 when the heap is exhausted.
func kernelBuffer(s *vm.State, size uint32, tag, kind string) uint32 {
	ks := kernel.Of(s)
	addr, err := ks.HeapAlloc(size, tag, kind, s.ICount, 0)
	if err != nil {
		return 0
	}
	delete(ks.Allocs, addr)
	return addr
}

// sendArgs builds the one-packet Send workload: a packet header
// { dataPtr, length } plus a payload whose 16 leading bytes are injected.
// The length is injected too but constrained to the payload size — the
// soundness requirement §7 contrasts with RevNIC ("constrained not to be
// greater than the original, to avoid buffer overflows").
func sendArgs(in Inputs, s *vm.State) []*expr.Expr {
	const payload = MaxPacketLen
	addr := kernelBuffer(s, 8+payload, "sendpkt", "packet")
	if addr != 0 {
		data := addr + 8
		s.Mem.Write(addr, 4, expr.Const(data))
		if in.Annotations {
			length := in.K.FreshSymbol(s, "packet_len", expr.OriginPacket)
			if !length.IsConst() {
				s.AddConstraint(expr.UGe(length, expr.Const(MinPacketLen)))
				s.AddConstraint(expr.ULe(length, expr.Const(payload)))
			}
			s.Mem.Write(addr+4, 4, length)
			for i := uint32(0); i < 16; i++ {
				s.Mem.Write(data+i, 1, in.K.FreshSymbol(s, fmt.Sprintf("packet_byte_%d", i), expr.OriginPacket))
			}
		} else {
			s.Mem.Write(addr+4, 4, expr.Const(42))
			for i := uint32(0); i < 16; i++ {
				s.Mem.Write(data+i, 1, expr.Const(0x40+i))
			}
		}
		for i := uint32(16); i < payload; i++ {
			s.Mem.Write(data+i, 1, expr.Const(0))
		}
	}
	return []*expr.Expr{expr.Const(AdapterHandle), expr.Const(addr)}
}

// infoArgs builds Query/SetInformation arguments: an injected OID (in
// annotation-free mode "driver entry point arguments are not touched" and
// the representative concreteOID is passed instead) and a 64-byte
// information buffer.
func infoArgs(concreteOID uint32) func(Inputs, *vm.State) []*expr.Expr {
	return func(in Inputs, s *vm.State) []*expr.Expr {
		var oid *expr.Expr
		if in.Annotations {
			oid = in.K.FreshSymbol(s, "oid", expr.OriginArgument)
		} else {
			oid = expr.Const(concreteOID)
		}
		buf := kernelBuffer(s, 64, "infobuf", "param")
		return []*expr.Expr{expr.Const(AdapterHandle), oid, expr.Const(buf), expr.Const(64)}
	}
}

// playArgs builds a 256-byte playback buffer with 8 injected leading
// samples.
func playArgs(in Inputs, s *vm.State) []*expr.Expr {
	buf := injectedBuffer(in, s, 256, "audiobuf", "sample_", 17)
	return []*expr.Expr{expr.Const(AdapterHandle), expr.Const(buf), expr.Const(256)}
}

// blockArgs builds a fresh 128-byte block-I/O buffer with 8 injected
// leading bytes for each Read and Write.
func blockArgs(in Inputs, s *vm.State) []*expr.Expr {
	buf := injectedBuffer(in, s, 128, "blkbuf", "blk_byte_", 9)
	return []*expr.Expr{expr.Const(AdapterHandle), expr.Const(buf), expr.Const(0x80)}
}

// injectedBuffer allocates a kernel-owned buffer whose 8 leading bytes are
// injected values named prefix+index. Without annotations byte i is
// i*stride.
func injectedBuffer(in Inputs, s *vm.State, size uint32, tag, prefix string, stride uint32) uint32 {
	addr := kernelBuffer(s, size, tag, "param")
	if addr == 0 {
		return 0
	}
	for i := uint32(0); i < 8; i++ {
		if in.Annotations {
			s.Mem.Write(addr+i, 1, in.K.FreshSymbol(s, fmt.Sprintf("%s%d", prefix, i), expr.OriginPacket))
		} else {
			s.Mem.Write(addr+i, 1, expr.Const(i*stride&0xFF))
		}
	}
	return addr
}
