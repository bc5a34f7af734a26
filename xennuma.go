// Package xennuma is the public facade of the reproduction of "An
// interface to implement NUMA policies in the Xen hypervisor" (Voron,
// Thomas, Quéma, Sens — EuroSys 2017).
//
// It wires the simulated AMD48 machine, the Xen-like hypervisor with the
// paper's two-hypercall NUMA-policy interface, the para-virtualized
// guest, the native-Linux baseline and the workload engine into a few
// high-level entry points:
//
//	res, err := xennuma.RunXen("cg.C", xennuma.MustPolicy("first-touch"), xennuma.Options{XenPlus: true})
//	base, _ := xennuma.RunXen("cg.C", xennuma.MustPolicy("round-1g"), xennuma.Options{XenPlus: true})
//	fmt.Printf("speedup: %.2fx\n", float64(base.Completion)/float64(res.Completion))
//
// Every run is deterministic for a given Options.Seed.
package xennuma

import (
	"fmt"

	"repro/internal/carrefour"
	"repro/internal/engine"
	"repro/internal/guest"
	"repro/internal/linux"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xen"
)

// Policy re-exports the policy configuration (static policy plus
// optional Carrefour).
type Policy = policy.Config

// Result re-exports the engine's per-run outcome.
type Result = engine.Result

// ParsePolicy parses any policy registered in internal/policy —
// "round-1g", "round-4k", "first-touch", "interleave", "bind:<node>",
// "least-loaded", "adaptive", … — optionally suffixed with "/carrefour"
// (e.g. "round-4k/carrefour") for policies Carrefour may stack on, with
// an optional heuristic variant ("/carrefour:migration",
// "/carrefour:replication", §7). Run `xnuma policies` for the full
// registry.
func ParsePolicy(s string) (Policy, error) { return policy.Parse(s) }

// carrefourMode maps a policy configuration's Carrefour variant to the
// engine's controller mode.
func carrefourMode(pol Policy) carrefour.Mode {
	switch pol.CarrefourVariant {
	case policy.CarrefourMigrationOnly:
		return carrefour.ModeMigrationOnly
	case policy.CarrefourReplicationOnly:
		return carrefour.ModeReplicationOnly
	default:
		return carrefour.ModeFull
	}
}

// MustPolicy is ParsePolicy that panics on error, for literals.
func MustPolicy(s string) Policy {
	cfg, err := ParsePolicy(s)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Options tunes a run. The zero value gives the paper's single-VM
// setting on a 1/64-scale AMD48 under stock Xen (no passthrough, no MCS
// locks).
type Options struct {
	// Scale divides node memory banks and application footprints
	// (a power of two in [1, 512]; default 64). Scale 1 is the
	// full-size machine.
	Scale int
	// Seed makes runs reproducible (default 1). Only a run for which
	// ReadsSeed holds reads it.
	Seed uint64
	// Threads overrides the thread/vCPU count (default: all 48 CPUs).
	Threads int
	// XenPlus enables the paper's improved baseline: PCI passthrough
	// for I/O and MCS spin locks for the pthread-blocking applications
	// (§5.3). It is a setting of the VM, not of the machine: the run's
	// domain requests the passthrough driver, and a warm machine hosts
	// Xen and Xen+ VMs alike. Ignored by native runs.
	XenPlus bool
	// MCS forces the MCS-lock mitigation for pthread applications in
	// native runs (the paper's LinuxNUMA baseline uses it).
	MCS bool
	// MaxTime bounds a run in virtual time (default 300 s).
	MaxTime sim.Time
	// TLB enables the address-translation cost model of the paper's §7
	// large-page extension; LargePages then maps the workload with
	// 2 MiB pages. Both default off (the paper's baseline).
	TLB        bool
	LargePages bool
	// Pool, when non-nil, lends warm machines to Xen and native runs:
	// the run leases a pre-built machine of its platform, resets it and
	// rebuilds only the seed/app/policy-dependent state, returning it on
	// completion. Results are bit-for-bit identical with or without a
	// pool. Sweeps attach one per suite.
	Pool *Pool
	// NoPool forces cold-built machines even when Pool is set, on both
	// platforms — the always-fresh reference path the pooled-vs-fresh
	// equivalence tests pin against.
	NoPool bool
}

// maxScale is the largest scale divisor: the hypervisor shrinks its
// "1 GiB" and "2 MiB" region orders by log2(scale), and at 1/512 a
// "2 MiB" region is down to one page.
const maxScale = 512

// CheckScale returns an error unless scale is a machine scale the
// simulated stack builds: a power of two in [1, 512].
func CheckScale(scale int) error {
	if scale < 1 || scale > maxScale || scale&(scale-1) != 0 {
		return fmt.Errorf("scale %d is not a power of two in [1, %d]", scale, maxScale)
	}
	return nil
}

// CheckApp returns an error unless app names one of the 29
// applications of the paper's evaluation (see Apps).
func CheckApp(app string) error {
	if _, err := workload.Get(app); err != nil {
		return fmt.Errorf("unknown application %q", app)
	}
	return nil
}

// normalized fills in the defaults and rejects a scale the machine
// cannot be built at.
func (o Options) normalized() (Options, error) {
	if o.Scale == 0 {
		o.Scale = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Threads == 0 {
		o.Threads = 48
	}
	if o.MaxTime == 0 {
		o.MaxTime = 300 * sim.Second
	}
	if err := CheckScale(o.Scale); err != nil {
		return o, fmt.Errorf("xennuma: %w", err)
	}
	return o, nil
}

// ReadsSeed reports whether a run of app under pol reads Options.Seed:
// only Carrefour draws randomness, and only for an application whose
// accesses burst (§3.5.2), so every other run computes the same result
// at every seed. A pair run reads its seed if either VM's run does. An
// unknown app reports true.
func ReadsSeed(app string, pol Policy) bool {
	prof, err := workload.Get(app)
	if err != nil {
		return true
	}
	return engine.ReadsSeed(prof, pol.Carrefour)
}

// RunXen runs one application alone in one virtual machine spanning the
// whole machine (the paper's single-VM setting, §5.4.1) under the given
// NUMA policy, and returns its completion time and placement statistics.
func RunXen(app string, pol Policy, o Options) (Result, error) {
	o, err := o.normalized()
	if err != nil {
		return Result{}, err
	}
	prof, err := workload.Get(app)
	if err != nil {
		return Result{}, err
	}
	key := poolKey{scale: o.Scale}
	m, err := acquire(o, key)
	if err != nil {
		return Result{}, err
	}
	inst, err := buildXenInstance(m, 0, prof, pol, o, nil, vmMemBytes(m.topo, prof, o, 1))
	if err != nil {
		return Result{}, err
	}
	res, err := m.runner.Run(engineConfig(m.topo, o), inst)
	if err != nil {
		return Result{}, err
	}
	releaseMachine(o, key, m)
	return res[0], nil
}

// engineConfig builds the run configuration from the options.
func engineConfig(topo *numa.Topology, o Options) engine.Config {
	cfg := engine.DefaultConfig(topo, o.Scale)
	cfg.Seed = o.Seed
	cfg.MaxTime = o.MaxTime
	if o.TLB {
		tlb := numa.DefaultTLB()
		cfg.TLB = &tlb
	}
	return cfg
}

// RunLinux runs one application natively under a Linux NUMA policy
// (first-touch or round-4K, optionally with Carrefour). With a pool it
// leases the scale's native machine like RunXen leases a hypervisor.
func RunLinux(app string, pol Policy, o Options) (Result, error) {
	o, err := o.normalized()
	if err != nil {
		return Result{}, err
	}
	prof, err := workload.Get(app)
	if err != nil {
		return Result{}, err
	}
	key := poolKey{scale: o.Scale, native: true}
	m, err := acquire(o, key)
	if err != nil {
		return Result{}, err
	}
	b, err := linux.Rebuild(m.native, m.topo, pol)
	if err != nil {
		return Result{}, err
	}
	m.native = b
	inst := m.instance(0, prof, b, pol, o, o.MCS)
	res, err := m.runner.Run(engineConfig(m.topo, o), inst)
	if err != nil {
		return Result{}, err
	}
	releaseMachine(o, key, m)
	return res[0], nil
}

// PairMode selects how two virtual machines share the machine.
type PairMode int

const (
	// Colocated gives each VM half the nodes and 24 vCPUs (Figure 8).
	Colocated PairMode = iota
	// Consolidated gives each VM all 48 vCPUs; every physical CPU runs
	// two vCPUs (Figure 9).
	Consolidated
)

// RunXenPair runs two applications in two virtual machines (the
// consolidated-workload settings of §5.4.2) and returns one result per
// VM. For the colocated mode the paper averages two runs with the node
// halves swapped; pass swap=true for the second run.
func RunXenPair(app1 string, pol1 Policy, app2 string, pol2 Policy, mode PairMode, swap bool, o Options) (Result, Result, error) {
	o, err := o.normalized()
	if err != nil {
		return Result{}, Result{}, err
	}
	// Memory sizing counts VMs per memory partition: colocated VMs split
	// the machine (each sized as one of two), consolidated VMs each span
	// all of it (each sized as if alone), matching the paper's setups.
	// An unknown mode is rejected before a machine is leased.
	var memVMs int
	switch mode {
	case Colocated:
		memVMs = 2
	case Consolidated:
		memVMs = 1
	default:
		return Result{}, Result{}, fmt.Errorf("xennuma: unknown pair mode %d", mode)
	}
	prof1, err := workload.Get(app1)
	if err != nil {
		return Result{}, Result{}, err
	}
	prof2, err := workload.Get(app2)
	if err != nil {
		return Result{}, Result{}, err
	}
	key := poolKey{scale: o.Scale}
	m, err := acquire(o, key)
	if err != nil {
		return Result{}, Result{}, err
	}
	topo := m.topo
	pins1, pins2 := m.pins[0][:0], m.pins[1][:0]
	threads := o.Threads
	if mode == Colocated {
		threads = 24
		half := topo.NumNodes() / 2
		for n, node := range topo.Nodes {
			for _, c := range node.CPUs {
				if n < half {
					pins1 = append(pins1, c)
				} else {
					pins2 = append(pins2, c)
				}
			}
		}
	} else {
		for c := 0; c < topo.NumCPUs(); c++ {
			pins1 = append(pins1, numa.CPUID(c))
			pins2 = append(pins2, numa.CPUID(c))
		}
	}
	m.pins[0], m.pins[1] = pins1, pins2
	if swap {
		pins1, pins2 = pins2, pins1
	}
	o1, o2 := o, o
	o1.Threads, o2.Threads = threads, threads
	inst1, err := buildXenInstance(m, 0, prof1, pol1, o1, pins1, vmMemBytes(topo, prof1, o, memVMs))
	if err != nil {
		return Result{}, Result{}, err
	}
	inst2, err := buildXenInstance(m, 1, prof2, pol2, o2, pins2, vmMemBytes(topo, prof2, o, memVMs))
	if err != nil {
		return Result{}, Result{}, err
	}
	res, err := m.runner.Run(engineConfig(topo, o), inst1, inst2)
	if err != nil {
		return Result{}, Result{}, err
	}
	releaseMachine(o, key, m)
	return res[0], res[1], nil
}

func newHypervisor(topo *numa.Topology, scale int) (*xen.Hypervisor, error) {
	dom0Mem := int64(2<<30) / int64(scale)
	if dom0Mem < 8<<20 {
		dom0Mem = 8 << 20
	}
	return xen.New(topo, xen.ScaledConfig(scale), dom0Mem)
}

// vmMemBytes sizes a VM: the scaled footprint plus headroom, clamped to
// what the machine can still give out.
func vmMemBytes(topo *numa.Topology, prof workload.Profile, o Options, vms int) int64 {
	foot := int64(prof.FootprintMB * (1 << 20) / float64(o.Scale))
	// Footprint with headroom, plus the guest kernel's low region (one
	// round-1G unit) and a matching tail.
	hugeBytes := int64(2<<30) / int64(o.Scale)
	memBytes := foot + foot/3 + hugeBytes
	limit := (topo.TotalMemory() - int64(2<<30)/int64(o.Scale)) / int64(vms)
	limit = limit * 9 / 10
	if memBytes > limit {
		memBytes = limit
	}
	return memBytes
}

// buildXenInstance creates the VM for one instance slot of m's machine
// and (re)builds its guest backend and engine instance. On a warm lease
// the slot's previous backend and instance are rebuilt in place; the
// result is bit-for-bit identical to a cold build either way.
func buildXenInstance(m *machine, slot int, prof workload.Profile, pol Policy, o Options, pins []numa.CPUID, memBytes int64) (*engine.Instance, error) {
	boot, err := policy.BootKind(pol.Static)
	if err != nil {
		return nil, err
	}
	topo := m.hv.Topo
	if len(pins) == 0 {
		// The identity pins go into the slot's buffer: CreateDomain
		// copies them into the domain's vCPUs and keeps nothing.
		pins = m.pins[slot][:0]
		for c := 0; c < o.Threads && c < topo.NumCPUs(); c++ {
			pins = append(pins, numa.CPUID(c))
		}
		m.pins[slot] = pins
	}
	dom, err := m.hv.CreateDomain(xen.DomainSpec{
		Name:        prof.Name,
		MemBytes:    memBytes,
		PinCPUs:     pins,
		Boot:        boot,
		Passthrough: o.XenPlus,
	})
	if err != nil {
		return nil, err
	}
	b, _, err := guest.RebuildBackend(m.backs[slot], m.hv, dom, pol)
	if err != nil {
		return nil, err
	}
	m.backs[slot] = b
	return m.instance(slot, prof, b, pol, o, o.XenPlus), nil
}

// Apps returns the 29 application names of the paper's evaluation.
func Apps() []string { return workload.Names() }
