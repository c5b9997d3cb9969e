// Command perfbench is eyeWnder's end-to-end benchmark. It drives a real
// in-process deployment — store.Open + backend.New + Serve over loopback
// TCP — through one of three seeded workloads, checks every closed round
// against a plaintext oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer ledger) as the last line of standard output.
//
//	go run . --workload ingest_paper --seed 1 --seconds 12 --trace 0
//	go run . -compare old.json new.json
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// outDir holds everything a run leaves behind, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// setupRuns is how many times a run deploys from scratch; setup_s is the
// median.
const setupRuns = 101

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type opTotals struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// detail is printed (and saved) before the result: the environment
// stamp, per-operation counts, sample counts and the correctness facts.
type detail struct {
	Workload          string              `json:"workload"`
	Seed              uint64              `json:"seed"`
	Trace             bool                `json:"trace"`
	Env               envStamp            `json:"env"`
	Ops               map[string]opTotals `json:"ops"`
	Samples           map[string]int      `json:"samples"`
	PrepS             float64             `json:"prep_s"`
	MeasuredS         float64             `json:"measured_s"`
	MeasuredRounds    uint64              `json:"measured_rounds"`
	Verified          int                 `json:"rounds_verified"`
	Digest            string              `json:"digest"`
	WALBytesPerReport float64             `json:"wal_bytes_per_report"`
	WALTailBytes      int64               `json:"wal_tail_bytes"`
	Tails             map[string]metric   `json:"tails,omitempty"`
	CloseSum          *closeSum           `json:"close_sum,omitempty"`
	Errors            []string            `json:"errors,omitempty"`
}

type saved struct {
	Detail detail `json:"detail"`
	Result result `json:"result"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "ingest_paper, close_churn or audit_mixed")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 12, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced pass and prints the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two saved results: -compare old.json new.json")
	saturate := flag.Bool("saturate", false, "drive an open-loop workload's shape closed-loop and print the rates it sustains")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *compare {
		if err := compareResults(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	var s *spec
	for _, c := range specs {
		if c.name == *workload {
			s = c
		}
	}
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (or bad --seconds/--trace)\n", *workload)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(outDir, "data"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *saturate {
		if err := saturation(s, *seed, time.Duration(*seconds)*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	out := execute(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	for name, m := range out.Result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.Detail.Errors = append(out.Detail.Errors, fmt.Sprintf("metric %s not measured (%v)", name, m.Value))
			out.Result.Correct = false
			out.Result.Metrics[name] = metric{0, m.Unit}
		}
	}
	for _, e := range out.Detail.Errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	if err := save(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	d, err := json.Marshal(map[string]detail{"detail": out.Detail})
	if err == nil {
		fmt.Println(string(d))
	}
	line, err := json.Marshal(out.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Result.Correct {
		return 1
	}
	return 0
}

// save writes the run's detail and result under outDir/results.
func save(out *saved) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	t := 0
	if out.Detail.Trace {
		t = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", out.Detail.Workload, out.Detail.Seed, t)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// pass is one deployment driven through the workload and recovered.
type pass struct {
	run    *run
	setups []float64
	rec    recovery
}

// runPass deploys setups times, keeping one deployment, measures, tears
// down, times recovery on the data directory and removes every
// directory. The set-ups are taken in two halves, before the measured
// phase and after recovery, half a minute apart, so that one episode of
// host contention moves fewer of them.
func runPass(s *spec, seed uint64, in *inputs, d time.Duration, tr *tracer, setups int, tag string) (*pass, error) {
	dirs := make([]string, setups)
	for i := range dirs {
		dirs[i] = filepath.Join(outDir, "data", fmt.Sprintf("%s-%s-%d-%d", s.name, tag, os.Getpid(), i))
	}
	defer func() {
		for _, dir := range dirs {
			os.RemoveAll(dir)
		}
	}()
	before := setups/2 + 1
	// A deployment starts in a fresh process; collecting the generator's
	// preparation garbage first keeps a GC cycle out of the set-ups.
	runtime.GC()
	dep, times, err := timedSetups(s, dirs[:before], tr)
	if err != nil {
		return nil, err
	}
	p := &pass{run: newRun(s, seed, in, dep, tr), setups: times}
	runErr := p.run.measure(d)
	p.run.final = dep.reg.Snapshot()
	if err := errors.Join(runErr, dep.teardown()); err != nil {
		return p, err
	}
	if p.rec, err = recoverDir(s, dep.dir, p.run.lastClosed); err != nil {
		return p, err
	}
	if before == setups {
		return p, nil
	}
	runtime.GC()
	last, more, err := timedSetups(s, dirs[before:], tr)
	if err != nil {
		return p, err
	}
	p.setups = append(p.setups, more...)
	return p, last.teardown()
}

// execute runs the workload and assembles the output. Any error marks
// the result incorrect; the metrics measured so far are still reported.
func execute(s *spec, seed uint64, d time.Duration, traced bool) *saved {
	out := &saved{Detail: detail{Workload: s.name, Seed: seed, Trace: traced,
		Env: stamp(filepath.Join(outDir, "data"), s.sync)}}
	fail := func(err error) *saved {
		out.Detail.Errors = append(out.Detail.Errors, err.Error())
		out.Result.Correct = false
		if out.Result.Attempted == 0 {
			out.Result.Attempted = 1
			out.Result.Failed = 1
		}
		if out.Result.Metrics == nil {
			out.Result.Metrics = map[string]metric{}
		}
		return out
	}
	prepStart := time.Now()
	in, err := prepare(s, seed)
	if err != nil {
		return fail(fmt.Errorf("preparing inputs: %w", err))
	}
	prepS := time.Since(prepStart).Seconds()
	out.Detail.PrepS = prepS
	out.Detail.Digest = fmt.Sprintf("%x", in.digest())

	setups := setupRuns
	if traced {
		setups = 1
	}
	a, err := runPass(s, seed, in, d, nil, setups, "a")
	if a != nil {
		fillDetail(&out.Detail, a)
		out.Result = endToEnd(a)
		out.Detail.Tails = tails(a.run)
	}
	if err != nil {
		return fail(err)
	}
	if err := check(a); err != nil {
		return fail(err)
	}
	if !traced {
		return out
	}

	tr := newTracer()
	b, err := runPass(s, seed, in, d, tr, 1, "b")
	if err != nil {
		return fail(fmt.Errorf("traced pass: %w", err))
	}
	if err := check(b); err != nil {
		return fail(fmt.Errorf("traced pass: %w", err))
	}
	fillDetail(&out.Detail, b)
	lm, cs := layerMetrics(tr, a, b, prepS)
	out.Detail.CloseSum = cs
	out.Result.Metrics = lm
	for _, o := range b.run.rec.ops {
		out.Result.Attempted += o.attempted
		out.Result.Failed += o.failed
	}
	wa, wb := walBytesPerReport(a.run), walBytesPerReport(b.run)
	if wa != wb {
		return fail(fmt.Errorf("wal_bytes_per_report differs between untraced (%v) and traced (%v) passes", wa, wb))
	}
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.csv", s.name, seed))); err != nil {
		return fail(fmt.Errorf("writing spans: %w", err))
	}
	return out
}

// saturation drives an open-loop workload's shape closed-loop: every
// burst of frames goes out as soon as the previous one is acknowledged,
// and every audit as soon as the previous one is answered. The rates it
// achieves are the shape's saturation point on this host, the reference
// the workload's offered rates are chosen against (see README.md).
// Frames per second count only the time the frame schedule runs, as the
// open loop's offered rate does: closes and checks hold it.
func saturation(s *spec, seed uint64, d time.Duration) error {
	if !s.openLoop() {
		return fmt.Errorf("-saturate: %s is not an open-loop workload", s.name)
	}
	sat := *s
	sat.frameRate, sat.auditRate = math.Inf(1), math.Inf(1)
	in, err := prepare(&sat, seed)
	if err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	p, err := runPass(&sat, seed, in, d, nil, 1, "sat")
	if err == nil {
		err = check(p)
	}
	if err != nil {
		return err
	}
	r := p.run
	measured := r.measuredEnd.Sub(r.measuredStart)
	frames, _ := r.rec.accepted()
	line, err := json.Marshal(map[string]any{
		"workload":             s.name,
		"seed":                 seed,
		"env":                  stamp(filepath.Join(outDir, "data"), s.sync),
		"frames_per_s":         float64(frames) / (measured - r.held).Seconds(),
		"audits_per_s":         float64(len(r.rec.audit.v)) / measured.Seconds(),
		"offered_frames_per_s": s.frameRate,
		"offered_audits_per_s": s.auditRate,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// check is the correctness gate of one pass beyond the per-round oracle
// checks the loop already made: every submitted report and share was
// accepted, nothing failed, and every close was verified.
func check(p *pass) error {
	r := p.run
	if got, want := r.final["eyewnder_reports_accepted_total"], float64(r.sent[opReport]); got != want {
		return fmt.Errorf("eyewnder_reports_accepted_total %v, submitted %v", got, want)
	}
	if got, want := r.final["eyewnder_adjust_shares_total"], float64(r.sent[opShare]); got != want {
		return fmt.Errorf("eyewnder_adjust_shares_total %v, submitted %v", got, want)
	}
	if r.verified != r.sent[opClose] {
		return fmt.Errorf("%d closes, %d verified", r.sent[opClose], r.verified)
	}
	for i, o := range r.rec.ops {
		if o.failed > 0 {
			return fmt.Errorf("%d of %d %s operations failed", o.failed, o.attempted, opNames[i])
		}
	}
	return nil
}

func fillDetail(dt *detail, p *pass) {
	r := p.run
	dt.Ops = make(map[string]opTotals)
	for i, o := range r.rec.ops {
		dt.Ops[opNames[i]] = opTotals{Attempted: o.attempted, Failed: o.failed}
	}
	dt.Samples = map[string]int{
		"setup": len(p.setups), "ack": len(r.rec.ack.v), "close": len(r.rec.close.v),
		"audit": len(r.rec.audit.v), "recover": recoveryRuns,
	}
	dt.MeasuredS = r.measuredEnd.Sub(r.measuredStart).Seconds()
	dt.MeasuredRounds = r.measuredRounds
	dt.Verified = r.verified
	dt.WALBytesPerReport = walBytesPerReport(r)
	dt.WALTailBytes = r.walTailBytes
}

// tails are the tail latencies of the untraced pass. They are printed in
// the detail line but not gated: on a shared 2-vCPU host they do not
// repeat within the benchmark's bounds (see README.md).
func tails(r *run) map[string]metric {
	return map[string]metric{
		"ack_p99_ms":   {percentile(r.rec.ack.v, 99), "ms"},
		"close_p90_ms": {percentile(r.rec.close.v, 90), "ms"},
		"audit_p99_ms": {percentile(r.rec.audit.v, 99), "ms"},
	}
}

// endToEnd computes the untraced pass's end-to-end metrics.
func endToEnd(p *pass) result {
	r := p.run
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, o := range r.rec.ops {
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	m := res.Metrics
	m["setup_s"] = metric{median(p.setups), "s"}
	m["ingest_rps"] = metric{r.ingestRPS(), "1/s"}
	m["ack_p50_ms"] = metric{r.p50(&r.rec.ack), "ms"}
	m["close_p50_ms"] = metric{r.p50(&r.rec.close), "ms"}
	m["audit_p50_ms"] = metric{r.p50(&r.rec.audit), "ms"}
	m["recover_s"] = metric{p.rec.totalS, "s"}
	if r.heap != nil {
		m["heap_peak_mb"] = metric{r.heap.peakMB(), "MB"}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	return res
}

// walBytesPerReport is the WAL bytes appended per accepted report over
// the measured phase (shares, opens and closes included).
func walBytesPerReport(r *run) float64 {
	reports := delta(r, "eyewnder_reports_accepted_total")
	if reports == 0 {
		return 0
	}
	return delta(r, "eyewnder_store_wal_bytes_total") / reports
}

// delta is a counter's movement over the measured phase; a name ending
// in "{" sums every labelled series of the metric.
func delta(r *run, name string) float64 {
	var sum float64
	for k, v := range r.after {
		if k == name || (strings.HasSuffix(name, "{") && strings.HasPrefix(k, name)) {
			sum += v - r.before[k]
		}
	}
	return sum
}

// compareResults prints the metric ratios of two saved results, refusing
// when they ran under different GOMAXPROCS.
func compareResults(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two result files")
	}
	var rs [2]saved
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if a, b := rs[0].Detail.Env.GOMAXPROCS, rs[1].Detail.Env.GOMAXPROCS; a != b {
		return fmt.Errorf("refusing to compare: GOMAXPROCS %d vs %d", a, b)
	}
	names := make([]string, 0, len(rs[0].Result.Metrics))
	for n := range rs[0].Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := rs[0].Result.Metrics[n]
		b, ok := rs[1].Result.Metrics[n]
		if !ok {
			continue
		}
		fmt.Printf("%-28s %14.4f %14.4f %8.3fx %s\n", n, a.Value, b.Value, b.Value/a.Value, a.Unit)
	}
	return nil
}
