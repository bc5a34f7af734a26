// Ablation benchmarks for the design choices the paper argues for
// (§4.2.4 notification queues, §5.3.2 MCS locks), extension benchmarks
// for what it leaves out (§3.4 page replication, §7 large pages), and
// micro-benchmarks of the hot mechanisms (buddy allocator, page-table
// walks, hypercalls).
//
//	go test -run '^$' -bench=. -benchmem
//
// The paper's tables and figures are timed by bench/, not here.
package xennuma_test

import (
	"fmt"
	"testing"

	xennuma "repro"

	"repro/internal/exp"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/numa"
	"repro/internal/policy"
	"repro/internal/xen"
)

// benchSuite memoizes the cells the MCS ablation compares.
var benchSuite = exp.NewSuite(64)

// --- Ablations (paper §4.2.4, §5.3.2) ---

// BenchmarkAblationQueueDesign reports the per-release cost of the three
// notification designs at wrmem's rate: the strawman hypercall per
// release, a single batched global queue, and the paper's partitioned
// queues.
func BenchmarkAblationQueueDesign(b *testing.B) {
	designs := []struct {
		name string
		cfg  guest.QueueConfig
	}{
		{"unbatched", guest.QueueConfig{Queues: 1, BatchSize: 1, Unbatched: true}},
		{"global-batched", guest.QueueConfig{Queues: 1, BatchSize: 64}},
		{"partitioned", guest.DefaultQueueConfig()},
	}
	for _, d := range designs {
		b.Run(d.name, func(b *testing.B) {
			m := guest.ChurnModel{Cfg: d.cfg, Threads: 48}
			var per float64
			for i := 0; i < b.N; i++ {
				per = m.PerReleaseNs(15000)
			}
			b.ReportMetric(per, "ns/release")
			b.ReportMetric(1+per/15000, "slowdown")
		})
	}
}

// BenchmarkAblationBatchSize sweeps the page-queue batch size.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			m := guest.ChurnModel{Cfg: guest.QueueConfig{Queues: 4, BatchSize: batch}, Threads: 48}
			var per float64
			for i := 0; i < b.N; i++ {
				per = m.PerReleaseNs(15000)
			}
			b.ReportMetric(per, "ns/release")
		})
	}
}

// BenchmarkAblationQueueCount sweeps the partition count at batch 64.
func BenchmarkAblationQueueCount(b *testing.B) {
	for _, q := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("queues=%d", q), func(b *testing.B) {
			m := guest.ChurnModel{Cfg: guest.QueueConfig{Queues: q, BatchSize: 64}, Threads: 48}
			var per float64
			for i := 0; i < b.N; i++ {
				per = m.PerReleaseNs(15000)
			}
			b.ReportMetric(per, "ns/release")
		})
	}
}

// BenchmarkAblationMCS isolates the MCS-lock mitigation on the two
// pthread-blocking applications (§5.3.2): same policy, Xen+ on/off.
// Neither application touches the disk, so the only Xen+ ingredient that
// matters is the lock replacement.
func BenchmarkAblationMCS(b *testing.B) {
	for _, app := range []string{"facesim", "streamcluster"} {
		b.Run(app, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				off := benchSuite.Xen(app, "round-4k", false).Result()
				on := benchSuite.Xen(app, "round-4k", true).Result()
				gain = float64(off.Completion)/float64(on.Completion) - 1
			}
			b.ReportMetric(100*gain, "improvement-%")
		})
	}
}

// --- Micro-benchmarks of the real mechanisms ---

func BenchmarkBuddyAllocFree(b *testing.B) {
	a := mem.NewAllocator(numa.SmallMachine(2, 2, 512<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mfn, err := a.Alloc(0, mem.Order4K)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(mfn, mem.Order4K)
	}
}

func BenchmarkDomainTouchFastPath(b *testing.B) {
	topo := numa.SmallMachine(4, 4, 64<<20)
	hv, err := xen.New(topo, xen.Config{HugeOrder: 10, MidOrder: 3}, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	d, err := hv.CreateDomain(xen.DomainSpec{
		Name: "bench", MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		b.Fatal(err)
	}
	pages := mem.PFN(d.PhysPages())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Touch(mem.PFN(i)%pages, 0)
	}
}

func BenchmarkFirstTouchFaultPath(b *testing.B) {
	topo := numa.SmallMachine(4, 4, 256<<20)
	hv, err := xen.New(topo, xen.Config{HugeOrder: 10, MidOrder: 3}, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	d, err := hv.CreateDomain(xen.DomainSpec{
		Name: "bench", MemBytes: 64 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch}); err != nil {
		b.Fatal(err)
	}
	pages := d.PhysPages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn := mem.PFN(uint64(i) % pages)
		// Release then re-touch: invalidation + fault + placement.
		d.HypercallPageQueue([]policy.PageOp{{Kind: policy.OpRelease, PFN: pfn}})
		d.Touch(pfn, numa.NodeID(i%4))
	}
}

func BenchmarkPageQueueAdd(b *testing.B) {
	topo := numa.SmallMachine(4, 4, 64<<20)
	hv, err := xen.New(topo, xen.Config{HugeOrder: 10, MidOrder: 3}, 4<<20)
	if err != nil {
		b.Fatal(err)
	}
	d, err := hv.CreateDomain(xen.DomainSpec{
		Name: "bench", MemBytes: 16 << 20,
		PinCPUs: []numa.CPUID{0, 4, 8, 12}, Boot: policy.Round4K,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.HypercallSetPolicy(policy.Config{Static: policy.FirstTouch})
	q := guest.NewPageQueue(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate alloc/release so flushed batches do not free pages
		// twice.
		kind := policy.OpAlloc
		if i%2 == 1 {
			kind = policy.OpRelease
		}
		q.Add(kind, mem.PFN(i%4096))
	}
}

// BenchmarkSingleVMRun measures one full end-to-end simulation (machine
// boot, domain build, policy selection, epoch loop) — the unit of work
// behind every figure.
func BenchmarkSingleVMRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := xennuma.RunXen("bodytrack", xennuma.MustPolicy("round-4k"), xennuma.Options{Scale: 64, XenPlus: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionReplication measures the replication heuristic the
// paper discarded (§3.4): the /carrefour:replication variant against
// the paper's Carrefour. In this model, replicating a heavily contended
// read-only hot page can pay off noticeably — which matches the original
// Carrefour paper; Voron et al. leave it out of the Xen port because it
// had marginal effect on *their* workload mix and would require radical
// memory-manager changes, not because it can never help.
func BenchmarkExtensionReplication(b *testing.B) {
	for _, app := range []string{"kmeans", "streamcluster"} {
		b.Run(app, func(b *testing.B) {
			var delta float64
			for i := 0; i < b.N; i++ {
				off, err := xennuma.RunXen(app, xennuma.MustPolicy("round-4k/carrefour"),
					xennuma.Options{Scale: 64, XenPlus: true})
				if err != nil {
					b.Fatal(err)
				}
				on, err := xennuma.RunXen(app, xennuma.MustPolicy("round-4k/carrefour:replication"),
					xennuma.Options{Scale: 64, XenPlus: true})
				if err != nil {
					b.Fatal(err)
				}
				delta = float64(off.Completion)/float64(on.Completion) - 1
			}
			b.ReportMetric(100*delta, "improvement-%")
		})
	}
}
