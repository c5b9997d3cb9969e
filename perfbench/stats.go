package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"eyewnder/internal/store"
	"eyewnder/internal/vec"
)

// percentile is the nearest-rank p-th percentile; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// windows is how many equal time windows the measured phase is cut into.
// The gated p50s and ingest_rps are medians over the windows' values: on
// a shared VM, host contention comes and goes over seconds, and a stall
// episode shorter than half the run then does not move them, while a
// change that slows every window does.
const windows = 10

// window returns the index of the window t falls in.
func (r *run) window(t time.Time) int {
	i := int(windows * t.Sub(r.measuredStart).Seconds() / r.measuredEnd.Sub(r.measuredStart).Seconds())
	return min(max(i, 0), windows-1)
}

// p50 is the median over the windows of each window's median sample.
func (r *run) p50(s *series) float64 {
	var per [windows][]float64
	for i, v := range s.v {
		w := r.window(s.at[i])
		per[w] = append(per[w], v)
	}
	var meds []float64
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return median(meds)
}

// ingestRPS is the median over the windows of the frames acknowledged
// per second of ingest in each.
func (r *run) ingestRPS() float64 {
	var frames [windows]int
	var busy [windows]time.Duration
	for _, x := range r.rec.ingest {
		w := r.window(x.end)
		frames[w] += x.frames
		busy[w] += x.busy
	}
	var rates []float64
	for w := range frames {
		if busy[w] > 0 {
			rates = append(rates, float64(frames[w])/busy[w].Seconds())
		}
	}
	return median(rates)
}

// heapSampler samples the Go heap in use — live objects plus dead ones
// the GC has not yet freed — every millisecond while the measured phase
// runs and keeps the peak.
type heapSampler struct {
	quit, done chan struct{}
	peak       uint64 // bytes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling; the peak is final once it returns.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// envStamp is recorded with every result.
type envStamp struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPU         string `json:"cpu"`
	Kernel      string `json:"kernel"`
	DataFS      string `json:"data_fs"`
	Go          string `json:"go"`
	Vec         string `json:"vec_kernel"`
	FsyncPolicy string `json:"fsync_policy"`
}

func stamp(dataDir string, sync store.SyncMode) envStamp {
	return envStamp{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPU:         cpuModel(),
		Kernel:      kernelRelease(),
		DataFS:      fsType(dataDir),
		Go:          runtime.Version(),
		Vec:         vec.Active(),
		FsyncPolicy: sync.String(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return "unknown"
}
