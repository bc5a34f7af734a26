// Package workload models the 29 applications of the paper's evaluation
// (Parsec 2.1, NPB 3.3, Mosbench, X-Stream, YCSB on Cassandra and
// MongoDB) as synthetic memory-access profiles.
//
// A NUMA placement policy only ever observes an application through the
// page-level pattern of its memory accesses, so each profile captures
// exactly the characteristics the paper shows drive every result:
//
//   - how the address space is first-touched (by a master thread, by
//     each thread privately, or distributed), which determines placement
//     under first-touch — calibrated from the Table 1 imbalance columns;
//   - how concentrated the access stream is on a few hot pages, which
//     determines the residual imbalance under round-4K;
//   - how memory-bound the computation is, which scales the performance
//     effect of placement;
//   - disk demand, context-switch rate and footprint, taken directly
//     from Table 2;
//   - allocator churn (the Streamflow-based Mosbench suite releases a
//     page every ~15 µs per core, §4.2.3).
//
// The access-share decomposition inverts the Table 1 imbalance metric:
// with N nodes, a fraction f of accesses concentrated on one node gives
// a relative standard deviation of √(N−1)·f (≈ 265 % for N = 8), so the
// hot-page share is set to r4kImbalance/265 and the master share to
// ftImbalance/265 minus that.
package workload

import "fmt"

// MaxImbalancePct is the relative standard deviation (in percent) of a
// fully concentrated access distribution on an 8-node machine: √7 × 100.
const MaxImbalancePct = 264.575

// Profile describes one application.
type Profile struct {
	Name  string
	Suite string

	// FootprintMB is the resident memory footprint (Table 2).
	FootprintMB float64
	// DiskMBps is the sustained disk demand (Table 2).
	DiskMBps float64
	// IOPenalty divides the virtualized I/O path capacity for
	// applications with pathological virtual-I/O behaviour (psearchy,
	// §5.5). 1 means none.
	IOPenalty float64
	// CtxSwitchKps is intentional context switches per second per core
	// (Table 2, interpreted per-core).
	CtxSwitchKps float64
	// UsesPthreadSync marks blocking that goes through pthread mutexes
	// and condition variables, removable by the MCS-spin mitigation
	// (only facesim and streamcluster in the paper, §5.3.2).
	UsesPthreadSync bool
	// SyncAmplification scales the stall caused by one wakeup (convoy
	// effects).
	SyncAmplification float64
	// ReleasesPerSec is the page-release rate per core (Streamflow
	// churn, §4.2.3).
	ReleasesPerSec float64

	// MemIntensity is the fraction of ideal (local, uncontended)
	// execution time spent waiting on LLC-missing memory accesses;
	// it determines how strongly placement changes completion time.
	MemIntensity float64
	// ReadFrac is the fraction of misses that are reads.
	ReadFrac float64

	// Access-stream decomposition (fractions of LLC misses, summing
	// to 1):
	HotShare     float64 // hottest-page set, unbalanceable by static policies
	MasterShare  float64 // memory first-touched by the master thread
	PrivateShare float64 // per-thread private memory
	DistShare    float64 // shared memory first-touched by all threads

	// CrossShare is the fraction of distributed-shared accesses that
	// cross slice boundaries: near 0 for nearest-neighbour codes, near 1
	// for all-to-all patterns (FFT transpose, map-reduce shuffle).
	CrossShare float64

	// WorkingSet is the fraction of the footprint that carries the
	// accesses (1 = uniform). A small working set inside a large
	// footprint concentrates on few round-1G regions, which is what
	// makes Xen's default placement catastrophic for ft.C.
	WorkingSet float64

	// Burstiness is the per-interval probability of a temporary remote
	// access burst against a private region — the pattern that misleads
	// Carrefour on the paper's "low" applications (§3.5.2).
	Burstiness float64

	// BaselineSeconds is the virtual completion time of the native-Linux
	// first-touch run, which anchors the application's total work.
	BaselineSeconds float64

	// Paper reference values (Table 1), for side-by-side reporting.
	PaperFTImb   float64
	PaperR4KImb  float64
	PaperFTLink  float64
	PaperR4KLink float64

	// Paper best policies (Table 4), as strings for reporting:
	// "FT", "FT/C", "R4K", "R4K/C", "R1G".
	PaperBestLinux string
	PaperBestXen   string
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	sum := p.HotShare + p.MasterShare + p.PrivateShare + p.DistShare
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: access shares sum to %.4f", p.Name, sum)
	}
	if p.MemIntensity < 0 || p.MemIntensity > 1 {
		return fmt.Errorf("workload %s: MemIntensity %.3f out of range", p.Name, p.MemIntensity)
	}
	if p.FootprintMB <= 0 || p.BaselineSeconds <= 0 {
		return fmt.Errorf("workload %s: non-positive footprint or baseline", p.Name)
	}
	return nil
}

// CPUNsPerUnit returns the compute nanoseconds per work unit, defined so
// that one work unit also issues exactly one LLC miss: a fully
// memory-bound application (MemIntensity→1) has almost no compute per
// miss.
//
//xnuma:noalloc
func (p *Profile) CPUNsPerUnit() float64 {
	const localMissNs = 71.0 // 156 cycles at 2.2 GHz
	mi := p.MemIntensity
	if mi < 0.01 {
		mi = 0.01
	}
	return localMissNs * (1 - mi) / mi
}

// spec is the compact calibration row for one application.
type spec struct {
	name, suite    string
	footMB         float64
	diskMBps       float64
	ioPenalty      float64
	ctxKps         float64
	pthread        bool
	syncAmp        float64
	releases       float64
	mi             float64
	readFrac       float64
	privRatio      float64 // private share of the non-hot, non-master rest
	cross          float64 // CrossShare (0 = default 0.25)
	burst          float64
	baseSec        float64
	ftImb, r4kImb  float64
	ftLink, rkLink float64
	bestLinux      string
	bestXen        string
}

func (s spec) profile() Profile {
	hot := s.r4kImb / MaxImbalancePct
	if hot > 0.85 {
		hot = 0.85
	}
	master := s.ftImb/MaxImbalancePct - hot
	if master < 0 {
		master = 0
	}
	rest := 1 - hot - master
	if rest < 0 {
		rest = 0
	}
	p := Profile{
		Name: s.name, Suite: s.suite,
		FootprintMB: s.footMB, DiskMBps: s.diskMBps, IOPenalty: max1(s.ioPenalty),
		CtxSwitchKps: s.ctxKps, UsesPthreadSync: s.pthread,
		SyncAmplification: s.syncAmp, ReleasesPerSec: s.releases,
		MemIntensity: s.mi, ReadFrac: s.readFrac,
		HotShare: hot, MasterShare: master,
		PrivateShare: rest * s.privRatio, DistShare: rest * (1 - s.privRatio),
		CrossShare: s.cross, Burstiness: s.burst, BaselineSeconds: s.baseSec,
		PaperFTImb: s.ftImb, PaperR4KImb: s.r4kImb,
		PaperFTLink: s.ftLink, PaperR4KLink: s.rkLink,
		PaperBestLinux: s.bestLinux, PaperBestXen: s.bestXen,
	}
	if p.CrossShare == 0 {
		p.CrossShare = 0.25
	}
	if p.WorkingSet == 0 {
		p.WorkingSet = 1
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

// specs is the calibration table: one row per application of the paper.
// Columns map to the spec struct fields in order.
var specs = []spec{
	// Parsec 2.1
	{"bodytrack", "parsec", 7, 0, 1, 17.7, false, 0.8, 0, 0.30, 0.7, 0.6, 0.25, 0, 2.5, 135, 48, 9, 8, "R4K/C", "R4K/C"},
	{"facesim", "parsec", 328, 0, 1, 11.7, true, 2.0, 0, 0.82, 0.6, 0.6, 0.25, 0, 3.0, 253, 27, 39, 16, "R4K", "R4K"},
	{"fluidanimate", "parsec", 223, 0, 1, 4.2, false, 1.0, 0, 0.30, 0.6, 0.7, 0.2, 0.30, 2.5, 65, 16, 18, 16, "R4K/C", "R4K/C"},
	{"streamcluster", "parsec", 106, 0, 1, 29.5, true, 1.5, 0, 0.85, 0.7, 0.6, 0.7, 0, 3.0, 219, 45, 31, 18, "R4K", "R4K"},
	{"swaptions", "parsec", 4, 0, 1, 0, false, 1.0, 0, 0.03, 0.6, 0.6, 0.25, 0, 2.0, 175, 180, 4, 5, "R4K", "R4K"},
	{"x264", "parsec", 1129, 0, 1, 0.6, false, 1.0, 0, 0.12, 0.6, 0.7, 0.25, 0.25, 2.5, 84, 28, 17, 13, "FT", "R4K"},
	// NPB 3.3
	{"bt.C", "npb", 698, 0, 1, 1.2, false, 1.0, 0, 0.60, 0.5, 0.4, 0.2, 0, 3.0, 89, 8, 51, 35, "FT/C", "FT/C"},
	{"cg.C", "npb", 889, 0, 1, 5.9, false, 1.0, 0, 0.97, 0.7, 0.75, 0.15, 0.30, 3.5, 7, 5, 11, 46, "FT", "FT"},
	{"dc.B", "npb", 39273, 175, 1, 0.1, false, 1.0, 0, 0.15, 0.6, 0.7, 0.3, 0.20, 4.0, 45, 19, 10, 22, "FT", "R1G"},
	{"ep.D", "npb", 49, 0, 1, 0, false, 1.0, 0, 0.15, 0.6, 0.6, 0.1, 0, 2.0, 263, 116, 48, 9, "R4K", "R4K"},
	{"ft.C", "npb", 5156, 0, 1, 0.3, false, 1.0, 0, 0.92, 0.6, 0.15, 1.0, 0.35, 3.5, 60, 19, 17, 46, "R4K", "R4K"},
	{"lu.C", "npb", 600, 0, 1, 1.5, false, 1.0, 0, 0.50, 0.6, 0.6, 0.3, 0.30, 3.0, 47, 30, 18, 41, "R4K", "FT"},
	{"mg.D", "npb", 27095, 0, 1, 1.5, false, 1.0, 0, 0.70, 0.6, 0.7, 0.2, 0.30, 4.0, 8, 1, 12, 51, "FT", "FT"},
	{"sp.C", "npb", 869, 0, 1, 2.0, false, 1.0, 0, 0.88, 0.5, 0.3, 0.5, 0, 3.0, 113, 4, 43, 58, "R4K/C", "R4K/C"},
	{"ua.C", "npb", 483, 0, 1, 37.4, false, 1.5, 0, 0.50, 0.6, 0.75, 0.2, 0.25, 3.0, 5, 7, 14, 37, "FT", "FT"},
	// Mosbench (Streamflow allocator)
	{"wc", "mosbench", 16682, 0, 1, 3.9, false, 1.0, 30000, 0.45, 0.6, 0.5, 0.5, 0, 3.0, 101, 41, 18, 17, "FT/C", "R4K"},
	{"wr", "mosbench", 19016, 1, 1, 5.2, false, 1.0, 40000, 0.45, 0.6, 0.5, 0.5, 0, 3.0, 110, 57, 18, 18, "FT", "R4K"},
	{"wrmem", "mosbench", 11610, 5, 1, 7.5, false, 1.0, 66667, 0.45, 0.6, 0.5, 0.5, 0, 3.0, 135, 102, 10, 11, "FT", "R4K"},
	{"pca", "mosbench", 5779, 0, 1, 0.3, false, 1.0, 5000, 0.85, 0.6, 0.5, 0.3, 0, 3.5, 235, 14, 52, 41, "R4K", "R4K/C"},
	{"kmeans", "mosbench", 4178, 0, 1, 0.1, false, 1.0, 3000, 0.88, 0.7, 0.5, 0.3, 0, 3.5, 251, 26, 61, 42, "R4K", "R4K"},
	{"psearchy", "mosbench", 28576, 54, 7, 0.8, false, 1.0, 25000, 0.30, 0.7, 0.7, 0.4, 0.20, 3.5, 19, 8, 6, 46, "FT", "R4K"},
	{"memcached", "mosbench", 2205, 0, 1, 127.1, false, 0.45, 2000, 0.06, 0.6, 0.6, 0.4, 0.20, 3.0, 85, 74, 13, 12, "FT", "R1G"},
	// X-Stream
	{"belief", "xstream", 12292, 234, 1, 0, false, 1.0, 0, 0.50, 0.7, 0.5, 0.6, 0, 4.0, 206, 80, 19, 10, "R4K", "R4K/C"},
	{"bfs", "xstream", 12291, 236, 1, 0, false, 1.0, 0, 0.50, 0.7, 0.5, 0.6, 0, 4.0, 190, 24, 17, 12, "R4K", "R4K"},
	{"cc", "xstream", 12291, 249, 1, 0, false, 1.0, 0, 0.50, 0.7, 0.5, 0.6, 0, 4.0, 185, 31, 17, 11, "R4K/C", "R4K/C"},
	{"pagerank", "xstream", 12291, 240, 1, 0, false, 1.0, 0, 0.50, 0.7, 0.5, 0.6, 0, 4.0, 183, 23, 17, 11, "R4K/C", "R4K/C"},
	{"sssp", "xstream", 12291, 261, 1, 0, false, 1.0, 0, 0.50, 0.7, 0.5, 0.6, 0, 4.0, 193, 10, 17, 11, "R4K/C", "R4K/C"},
	// YCSB
	{"cassandra", "ycsb", 1111, 16, 1, 10.7, false, 1.5, 0, 0.06, 0.6, 0.6, 0.4, 0.20, 3.0, 65, 50, 14, 14, "FT/C", "R1G"},
	{"mongodb", "ycsb", 1092, 184, 1, 14.6, false, 1.5, 0, 0.10, 0.6, 0.5, 0.4, 0, 3.0, 130, 95, 16, 14, "FT/C", "R1G"},
}

// workingSets overrides the default uniform working set for
// applications whose accesses concentrate in a fraction of their
// footprint.
var workingSets = map[string]float64{
	"ft.C":   0.25, // FFT transpose buffers within the 5 GiB footprint
	"kmeans": 0.20, // current chunk + centroids within the 4 GiB of points
	"pca":    0.25, // active matrix stripe
}

var byName = func() map[string]Profile {
	m := make(map[string]Profile, len(specs))
	for _, s := range specs {
		if _, dup := m[s.name]; dup {
			panic("workload: duplicate profile " + s.name)
		}
		p := s.profile()
		if ws, ok := workingSets[s.name]; ok {
			p.WorkingSet = ws
		}
		m[s.name] = p
	}
	return m
}()

// All returns the 29 profiles in the paper's presentation order.
func All() []Profile {
	out := make([]Profile, 0, len(specs))
	for _, s := range specs {
		out = append(out, byName[s.name])
	}
	return out
}

// Get returns the named profile.
func Get(name string) (Profile, error) {
	p, ok := byName[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown application %q", name)
	}
	return p, nil
}

// Names returns the application names in order.
func Names() []string {
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}
