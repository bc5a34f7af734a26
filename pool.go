package xennuma

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/linux"
	"repro/internal/numa"
	"repro/internal/workload"
	"repro/internal/xen"
)

// fiPoolReset is the fault site at the warm lease's reset step: an
// injected fault (error or panic) exercises the pool's degradation
// path — drop the machine, count it, cold-build — without a real
// divergence.
var fiPoolReset = faultinject.Register("pool.reset")

// poolKey is a machine's identity: its scale and whether it runs Xen or
// native Linux. The VMs a run creates are not part of it: as on the
// paper's one evaluation machine, any VM count and size fits, a lease
// for VMs of another size resizes the reset machine's storage in place,
// and Xen and Xen+ VMs differ only in the passthrough driver their
// domain requests (xen.DomainSpec.Passthrough).
type poolKey struct {
	scale  int
	native bool
}

// machine is one poolable world: the topology it was built on, a
// hypervisor plus the per-VM guest backends, engine instances and vCPU
// pin lists of its previous lease, or a native backend plus its engine
// instance, and the engine runner that ran them. The next lease
// rebuilds them in place. Each machine builds its own topology once,
// and its runner the cost model of that topology.
type machine struct {
	topo   *numa.Topology
	hv     *xen.Hypervisor
	native *linux.Backend
	backs  [2]*guest.Backend
	insts  [2]*engine.Instance
	pins   [2][]numa.CPUID
	runner engine.Runner
}

// Pool is a deterministic warm-machine pool: runs with Options.Pool set,
// on Xen or native Linux, lease a pre-built machine of their platform
// instead of cold-building one, reset it to its just-booted state, and
// return it when the run completes. Leases are exclusive, so a pool is
// safe at any worker count; results are bit-for-bit identical with or
// without one (pinned by TestPooledCellsMatchFreshSuites). Sweeps
// attach one pool per suite.
type Pool struct {
	mu     sync.Mutex
	free   map[poolKey][]*machine
	hits   uint64
	misses uint64
	drops  uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{free: make(map[poolKey][]*machine)} }

// Stats reports how many leases found a warm machine (hits) and how
// many had to cold-build one (misses). A lease whose reset failed
// counts as a miss (the run cold-built after all) plus a ResetDrops.
func (p *Pool) Stats() (hits, misses uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// ResetDrops reports how many leased machines were dropped because
// their reset diverged or panicked — the pool's degraded-mode counter:
// each drop is one warm lease that fell back to a cold build instead
// of killing the process.
func (p *Pool) ResetDrops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.drops
}

// count bumps one of the pool's counters under its lock.
func (p *Pool) count(c *uint64) {
	p.mu.Lock()
	*c++
	p.mu.Unlock()
}

// lease pops a free machine with the given identity, or returns nil
// when the caller must cold-build one. Counters are the caller's job: a
// popped machine only becomes a hit once its reset succeeds.
func (p *Pool) lease(key poolKey) *machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[key]
	if n := len(l); n > 0 {
		m := l[n-1]
		l[n-1] = nil
		p.free[key] = l[:n-1]
		return m
	}
	return nil
}

// release returns a machine to the free list after a completed run.
func (p *Pool) release(key poolKey, m *machine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free[key] = append(p.free[key], m)
}

// pool returns the effective pool for the run: nil when none is
// attached or the NoPool reference path is selected.
func (o Options) pool() *Pool {
	if o.NoPool {
		return nil
	}
	return o.Pool
}

// acquire produces the run's machine: a reset warm one when the pool
// holds one with the key's identity, a cold-built one on a topology of
// its own otherwise (a native machine's backend is built by its run,
// which knows the policy). A leased machine whose reset fails — a
// replay divergence, a panic anywhere in the reset protocol, or an
// injected fault — is dropped (counted in ResetDrops) and the run
// degrades to a cold build; the divergence never reaches the caller,
// and results stay bit-identical because a cold-built machine is the
// reference the reset protocol reproduces.
func acquire(o Options, key poolKey) (*machine, error) {
	p := o.pool()
	if p != nil {
		if m := p.lease(key); m != nil {
			if err := m.reset(); err == nil {
				p.count(&p.hits)
				return m, nil
			}
			p.count(&p.drops)
		}
	}
	m := &machine{topo: numa.AMD48Scaled(key.scale)}
	if !key.native {
		hv, err := newHypervisor(m.topo, key.scale)
		if err != nil {
			return nil, err
		}
		m.hv = hv
	}
	if p != nil {
		p.count(&p.misses)
	}
	return m, nil
}

// reset returns a leased machine to its just-booted state, degrading
// panics from the reset protocol into errors so a corrupt machine costs
// the pool one drop, never the process.
func (m *machine) reset() (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("pool: reset panicked: %v", p)
		}
	}()
	if err := fiPoolReset.Fire(); err != nil {
		return err
	}
	if m.hv != nil {
		return m.hv.Reset()
	}
	m.native.Alloc.Reset()
	return nil
}

// instance readies the engine instance in slot for a run of prof on b
// with the given number of threads: the slot's instance from the
// previous lease, which the machine's runner rebuilds in place, or a
// new one. mcs selects the MCS-lock mitigation, which applies to the
// profile's pthread-blocking apps only. Every entry point fills its
// instances here, so a warm and a cold run start from the same fields.
func (m *machine) instance(slot int, prof workload.Profile, b engine.Backend, pol Policy, threads int, mcs bool) *engine.Instance {
	in := m.insts[slot]
	if in == nil {
		in = &engine.Instance{}
		m.insts[slot] = in
	}
	in.Prof = prof
	in.Backend = b
	in.NThreads = threads
	in.Carrefour = pol.Carrefour
	in.CarrefourMode = carrefourMode(pol)
	in.MCS = mcs && prof.UsesPthreadSync
	return in
}

// releaseMachine hands the machine back to the pool, if any. Machines
// of runs that failed mid-build are dropped instead: their state is
// neither pristine nor resettable-by-construction.
func releaseMachine(o Options, key poolKey, m *machine) {
	if p := o.pool(); p != nil {
		p.release(key, m)
	}
}
