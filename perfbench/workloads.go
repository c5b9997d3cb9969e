package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// spec is one workload's fixed shape: deployment geometry, roster, the
// seeded input plan, and how the generator drives it.
type spec struct {
	name      string
	base      privacy.Params      // campaign 0 (the deployment's own geometry)
	campaigns []campaign.Campaign // provisioned beyond campaign 0
	users     int                 // roster size of every campaign
	plans     int                 // round shapes cycled per campaign
	adSets    int                 // ad-set templates cycled by the plans
	// adsPerUser is each user's distinct ads per round; half of them
	// come from a campaign-wide pool of adsPerUser popular ads, so a
	// popular ad is seen by about half the roster.
	adsPerUser int
	// darkEvery and dark: in campaign 0, every darkEvery-th plan has dark
	// users who send nothing, so that round closes through the
	// adjustment round (0 = nobody ever goes dark).
	darkEvery, dark int
	sync            store.SyncMode // WAL fsync policy (zero: batch, the ack is an fsync barrier)
	snapshotEvery   int            // store snapshot cadence in report appends (0 = store default)
	retain          int            // closed rounds each campaign keeps
	// Open loop (a nonzero frame rate): offered frame and audit rates
	// per second. Closed loops instead audit, after each close, every ad
	// one seeded reporter saw.
	frameRate, auditRate float64
}

func (s *spec) openLoop() bool { return s.frameRate > 0 }

// paper is the paper's geometry (§7.1): ε = δ = 0.001, a 7 × 2719 sketch.
func paper(idSpace uint64) privacy.Params {
	p := privacy.DefaultParams()
	p.IDSpace = idSpace
	p.Keystream = blind.KeystreamAESCTR
	return p
}

var specs = []*spec{
	{
		name: "ingest_paper", base: paper(20000),
		users: 128, plans: 16, adSets: 2, adsPerUser: simAds,
		darkEvery: 16, dark: 1,
		retain: 4,
	},
	{
		name: "close_churn", base: paper(1 << 20),
		users: 16, plans: 8, adSets: 8, adsPerUser: simAds,
		darkEvery: 1, dark: 4,
		snapshotEvery: 512, retain: 4,
	},
	{
		name: "audit_mixed",
		base: privacy.Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 20000,
			Suite: privacy.DefaultParams().Suite, Keystream: blind.KeystreamAESCTR},
		campaigns: workloadCampaigns(8, 20000),
		// 6 ads: the largest even count whose expected distinct ads per
		// round (6 popular + 16 users × 3 = 54) stay below the width of
		// the narrowest campaign sketch (ε = 0.04: w = 68).
		users: 16, plans: 4, adSets: 4, adsPerUser: 6,
		darkEvery: 1, dark: 1,
		sync: store.SyncOff, retain: 4,
		// A fiftieth of the rates the same shape sustains closed-loop on
		// a 2-vCPU host (perfbench --saturate, see README.md).
		frameRate: 900, auditRate: 480,
	},
}

// simAds is the ads per user of eyewnder-sim -load's default.
const simAds = 50

// burst is how many frames the open loop sends (and flushes) together:
// one default ack batch, what a proxy forwards per acknowledgement.
const burst = wire.DefaultAckBatch

// adjustWaitMS is the deadline a close with missing users waits for
// shares. Shares are always flushed before the close, so it never bites.
const adjustWaitMS = 10000

// Operation types counted separately.
const (
	opReport = iota
	opShare
	opClose
	opAudit
	numOps
)

var opNames = [numOps]string{"report", "share", "close", "audit"}

type opCount struct{ attempted, failed int }

// series is one quantity's samples in the measured phase, each with the
// time it was taken.
type series struct {
	v  []float64
	at []time.Time
}

func (s *series) add(v float64, at time.Time) {
	s.v = append(s.v, v)
	s.at = append(s.at, at)
}

func (s *series) merge(o *series) {
	s.v = append(s.v, o.v...)
	s.at = append(s.at, o.at...)
}

// ingestSpan is one stretch of ingest: a closed loop's round or an open
// loop's burst, from its first submit to the ack covering its last frame.
type ingestSpan struct {
	end    time.Time
	frames int // reports + shares acknowledged
	busy   time.Duration
}

// recorder accumulates one generator goroutine's measurements. Latencies
// are in ms; a failed operation records +Inf, so it misses every limit.
type recorder struct {
	ack, close, audit series
	late              []float64 // generator lateness (open) or own gap between operations (closed)
	ingest            []ingestSpan
	ops               [numOps]opCount
}

// accepted is the frames acknowledged in the measured phase and the time
// the ingest took.
func (r *recorder) accepted() (frames int, busy time.Duration) {
	for _, x := range r.ingest {
		frames += x.frames
		busy += x.busy
	}
	return frames, busy
}

func (r *recorder) merge(o *recorder) {
	r.ack.merge(&o.ack)
	r.close.merge(&o.close)
	r.audit.merge(&o.audit)
	r.late = append(r.late, o.late...)
	r.ingest = append(r.ingest, o.ingest...)
	for i := range r.ops {
		r.ops[i].attempted += o.ops[i].attempted
		r.ops[i].failed += o.ops[i].failed
	}
}

func (r *recorder) count(op int, err error) {
	r.ops[op].attempted++
	if err != nil {
		r.ops[op].failed++
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ackTracker attributes each batched ack to the frames it covers. due
// holds one entry per sequence slot on the connection (frames and flush
// markers); a zero time marks a slot that is not measured.
type ackTracker struct {
	due      []time.Time
	observed uint64
	rec      *recorder
}

// add registers the next frame's slot; sent is the stream's Sent count
// before the frame goes out, so flush markers in between are skipped.
func (a *ackTracker) add(sent uint64, due time.Time) {
	for uint64(len(a.due)) < sent {
		a.due = append(a.due, time.Time{})
	}
	a.due = append(a.due, due)
}

func (a *ackTracker) onAck(acked uint64) {
	now := time.Now()
	for ; a.observed < acked && a.observed < uint64(len(a.due)); a.observed++ {
		if t := a.due[a.observed]; !t.IsZero() {
			a.rec.ack.add(ms(now.Sub(t)), now)
		}
	}
}

// closedRound is a (campaign, round) the run closed, with its Users_th.
type closedRound struct {
	round   uint64
	usersTh float64
}

// run drives one deployment through one workload.
type run struct {
	s    *spec
	seed uint64
	in   *inputs
	dep  *deployment
	tr   *tracer // nil when untraced
	rec  recorder
	acks ackTracker
	seq  atomic.Uint64 // client request ids for traced JSON requests

	lastClosed   map[uint32]closedRound // written by the streaming goroutine only
	latestClosed []atomic.Uint64        // per campaign index, read by the audit goroutine
	sent         [numOps]int            // everything submitted, warm-up included
	verified     int                    // (campaign, round) oracle checks passed

	measuring     bool
	measuredStart time.Time
	measuredEnd   time.Time
	// Counter snapshots at the measured phase's start and end, and after
	// the last round (for the totals check).
	before, after, final map[string]float64
	heap                 *heapSampler
	measuredRounds       uint64
	walTailBytes         int64
	auditFailed          atomic.Bool
	held                 time.Duration // open loop: measured time the frame schedule was held for closes and checks
}

func newRun(s *spec, seed uint64, in *inputs, dep *deployment, tr *tracer) *run {
	r := &run{s: s, seed: seed, in: in, dep: dep, tr: tr,
		lastClosed: make(map[uint32]closedRound), latestClosed: make([]atomic.Uint64, len(in.camps))}
	r.acks.rec = &r.rec
	return r
}

// measure runs the workload: one warm-up round of every campaign
// (unmeasured), then measured rounds until d has passed and the current
// plan cycle is complete — whole cycles keep per-report ratios exact —
// then unmeasured rounds that position the WAL for recovery (see
// position).
func (r *run) measure(d time.Duration) error {
	var step, posStep func(round uint64, pace *pacer) error
	var finish func() error
	if r.s.openLoop() {
		cl := r.dep.conns[0]
		step = func(round uint64, pace *pacer) error { return r.cycle(cl, round, pace, len(r.in.camps)) }
		// Positioning rounds of campaign 0 alone keep the WAL tail's
		// granularity fine.
		posStep = func(round uint64, _ *pacer) error { return r.cycle(cl, round, nil, 1) }
		finish = func() error { return nil }
	} else {
		rs, err := r.dep.conns[0].OpenReportStream(0)
		if err != nil {
			return err
		}
		rs.OnAck = r.acks.onAck
		rng := rngFor(r.s.name, r.seed, "audits")
		step = func(round uint64, _ *pacer) error { return r.closedRound(rs, r.dep.conns[1], rng, round) }
		posStep = step
		finish = func() error { return r.flush(rs, true) }
	}
	if err := step(1, nil); err != nil {
		return err
	}
	r.startMeasured()
	var pace *pacer
	stopAudits := func() error { return nil }
	if r.s.openLoop() {
		pace = newPacer(r.s.frameRate / burst)
		stopAudits = r.startAudits()
	}
	round := uint64(2)
	var err error
	for ; ; round++ {
		if err = step(round, pace); err != nil || r.auditFailed.Load() {
			break
		}
		if time.Since(r.measuredStart) >= d && (round-1)%uint64(r.s.plans) == 0 {
			break
		}
	}
	err = errors.Join(err, stopAudits())
	r.endMeasured()
	r.measuredRounds = round - 1
	if err != nil {
		return err
	}
	if err := r.position(posStep, round+1); err != nil {
		return err
	}
	return finish()
}

// position runs unmeasured rounds until the active WAL segment crosses
// half a snapshot interval, so every run's recovery replays a WAL
// tail of the same size (within one round) on top of its last snapshot.
// A tail already past the mark first waits for the next rotation, which
// comes within one snapshot interval of reports.
func (r *run) position(step func(uint64, *pacer) error, round uint64) error {
	target := r.walTarget()
	limit := r.sent[opReport] + 3*r.snapshotEvery()
	below := false
	for ; ; round++ {
		tail, err := r.dep.walTail()
		if err != nil {
			return err
		}
		if tail < target {
			below = true
		} else if below {
			r.walTailBytes = tail
			return nil
		}
		if r.sent[opReport] > limit {
			return fmt.Errorf("WAL tail never crossed %d bytes", target)
		}
		if err := step(round, nil); err != nil {
			return err
		}
	}
}

// startMeasured marks the end of warm-up: counters are snapshotted,
// tracing turns on and the heap sampler starts.
func (r *run) startMeasured() {
	r.before = r.dep.reg.Snapshot()
	r.heap = startHeapSampler()
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	r.measuring = true
	r.measuredStart = time.Now()
}

func (r *run) endMeasured() {
	r.measuring = false
	r.measuredEnd = time.Now()
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	r.heap.stop()
	r.after = r.dep.reg.Snapshot()
}

// snapshotEvery is the store's effective snapshot cadence in reports.
func (r *run) snapshotEvery() int {
	if r.s.snapshotEvery == 0 {
		return store.DefaultSnapshotEvery
	}
	return r.s.snapshotEvery
}

// walTarget is half the WAL a snapshot interval writes.
func (r *run) walTarget() int64 {
	var rec float64
	for _, c := range r.in.camps {
		rec += float64(8*c.d*c.w + 80)
	}
	rec /= float64(len(r.in.camps))
	return int64(float64(r.snapshotEvery()) / 2 * rec)
}

// submit streams one frame, stamping the round's header fields.
func (r *run) submit(rs *wire.ReportStream, rec *recorder, f *wire.ReportFrame, due time.Time) error {
	f.ConfigVersion = r.dep.cv
	op := opReport
	if f.Kind == wire.FrameKindAdjust {
		op = opShare
	}
	if r.measuring {
		r.acks.add(rs.Sent(), due)
	} else {
		r.acks.add(rs.Sent(), time.Time{})
	}
	i := r.tr.begin(kSubmit, frameReq(f))
	err := rs.Submit(f)
	r.tr.end(i)
	r.sent[op]++
	if r.measuring {
		rec.count(op, err)
		if err != nil {
			rec.ack.add(math.Inf(1), time.Now())
		}
	}
	if err != nil {
		return fmt.Errorf("%s campaign %d round %d user %d: %w", opNames[op], f.Campaign, f.Round, f.User, err)
	}
	return nil
}

func (r *run) flush(rs *wire.ReportStream, closeStream bool) error {
	i := r.tr.begin(kFlush, 0)
	defer r.tr.end(i)
	if closeStream {
		return rs.Close()
	}
	return rs.Flush()
}

// closeRound closes one (campaign, round) over cl, checks the reply and
// publishes the round to the audit goroutine and the recovery check.
func (r *run) closeRound(cl *wire.Client, rec *recorder, ci int, round uint64) error {
	c := r.in.camps[ci]
	pl := c.planOf(round)
	req := wire.CloseRoundReq{Campaign: c.id, Round: round}
	if len(pl.missing) > 0 {
		req.AdjustWaitMS = adjustWaitMS
	}
	var resp wire.CloseRoundResp
	start := time.Now()
	i := r.tr.begin(kDoClose, r.seq.Add(1))
	err := cl.Do(wire.TypeCloseRound, req, &resp)
	r.tr.end(i)
	lat := ms(time.Since(start))
	r.sent[opClose]++
	if r.measuring {
		rec.count(opClose, err)
		if err != nil {
			lat = math.Inf(1)
		}
		rec.close.add(lat, time.Now())
	}
	if err != nil {
		return fmt.Errorf("close campaign %d round %d: %w", c.id, round, err)
	}
	if resp.DistinctAds != len(pl.counts) {
		return fmt.Errorf("close campaign %d round %d: %d distinct ads, oracle has %d", c.id, round, resp.DistinctAds, len(pl.counts))
	}
	r.lastClosed[c.id] = closedRound{round: round, usersTh: resp.UsersTh}
	r.latestClosed[ci].Store(round)
	return nil
}

// verify fetches a closed round's per-ad counts and compares them with
// privacy.UserCounts of the summed plaintext sketches of its reporters.
func (r *run) verify(cl *wire.Client, c *campInputs, round uint64) error {
	pl := c.planOf(round)
	var resp wire.RoundCountsResp
	if err := cl.Do(wire.TypeRoundCounts, wire.RoundCountsReq{Campaign: c.id, Round: round}, &resp); err != nil {
		return fmt.Errorf("counts campaign %d round %d: %w", c.id, round, err)
	}
	if len(resp.Counts) != len(pl.counts) {
		return fmt.Errorf("oracle mismatch campaign %d round %d: server has %d ads, oracle %d", c.id, round, len(resp.Counts), len(pl.counts))
	}
	for id, v := range pl.counts {
		if resp.Counts[id] != v {
			return fmt.Errorf("oracle mismatch campaign %d round %d ad %d: server %d, oracle %d", c.id, round, id, resp.Counts[id], v)
		}
	}
	r.verified++
	return nil
}

// audit asks #Users for one ad of a closed round and checks it against
// the oracle sketch.
func (r *run) audit(cl *wire.Client, rec *recorder, c *campInputs, round, ad uint64, due time.Time) error {
	pl := c.planOf(round)
	var resp wire.AuditAdResp
	i := r.tr.begin(kDoAudit, r.seq.Add(1))
	err := cl.Do(wire.TypeAuditAd, wire.AuditAdReq{Campaign: c.id, Round: round, AdID: ad}, &resp)
	r.tr.end(i)
	lat := ms(time.Since(due))
	if r.measuring {
		rec.count(opAudit, err)
		if err != nil {
			lat = math.Inf(1)
		}
		rec.audit.add(lat, time.Now())
	}
	if err != nil {
		return fmt.Errorf("audit campaign %d round %d ad %d: %w", c.id, round, ad, err)
	}
	if want := privacy.QueryUsers(pl.oracle, ad); resp.Users != want {
		return fmt.Errorf("audit campaign %d round %d ad %d: server %d users, oracle %d", c.id, round, ad, resp.Users, want)
	}
	return nil
}

// closedRound drives one round of campaign 0 like the aggregation proxy
// of eyewnder-sim -load: one batched stream with the default window, the
// next frame sent as soon as the window allows; the reports (and shares,
// when users are dark) are flushed, the round is closed and verified on
// the control connection, and audits follow the close.
func (r *run) closedRound(rs *wire.ReportStream, ctrl *wire.Client, rng *rand.Rand, round uint64) error {
	c := r.in.camps[0]
	pl := c.planOf(round)
	start := time.Now()
	var last time.Time
	send := func(f *wire.ReportFrame) error {
		f.Round = round
		now := time.Now()
		if r.measuring && !last.IsZero() {
			r.rec.late = append(r.rec.late, ms(now.Sub(last)))
		}
		err := r.submit(rs, &r.rec, f, now)
		last = time.Now()
		return err
	}
	for _, u := range pl.reporters {
		if err := send(c.frames[pl.adSet][u]); err != nil {
			return err
		}
	}
	for _, f := range pl.shares {
		if err := send(f); err != nil {
			return err
		}
	}
	if err := r.flush(rs, false); err != nil {
		return err
	}
	if r.measuring {
		r.rec.ingest = append(r.rec.ingest, ingestSpan{time.Now(), len(pl.reporters) + len(pl.shares), time.Since(start)})
	}
	if err := r.closeRound(ctrl, &r.rec, 0, round); err != nil {
		return err
	}
	if err := r.verify(ctrl, c, round); err != nil {
		return err
	}
	u := pl.reporters[rng.IntN(len(pl.reporters))]
	for _, ad := range c.ads[pl.adSet][u] {
		if err := r.audit(ctrl, &r.rec, c, round, ad, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// pacer hands out an open loop's due times at a fixed rate.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int64
	free     time.Time // when the generator finished its previous operation
}

func newPacer(rate float64) *pacer {
	return &pacer{start: time.Now(), interval: time.Duration(float64(time.Second) / rate)}
}

// wait sleeps until the next operation is due and returns the instant
// its latency counts from: the due time plus the generator's own
// lateness, which is the time past both the due time and the moment the
// generator was free to send (timer wake-up, bookkeeping). A wait the
// system imposed — the previous operation still running at the due time
// — stays in the latency; the generator's own delay is recorded apart.
func (p *pacer) wait(rec *recorder) time.Time {
	due := p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	ready := due
	if p.free.After(ready) {
		ready = p.free
	}
	late := time.Since(ready)
	rec.late = append(rec.late, ms(late))
	return due.Add(late)
}

// done marks the generator free again.
func (p *pacer) done() { p.free = time.Now() }

// hold shifts the schedule by d.
func (p *pacer) hold(d time.Duration) {
	p.start = p.start.Add(d)
	p.free = p.free.Add(d)
}

// startAudits starts audit_mixed's second connection: audits at a fixed
// rate against each campaign's latest closed round, timed from when each
// was due. The returned function stops it, waits for it and merges its
// measurements.
func (r *run) startAudits() func() error {
	var stop atomic.Bool
	var wg sync.WaitGroup
	rec := &recorder{}
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		err = r.auditLoop(r.dep.conns[1], rec, &stop)
		if err != nil {
			r.auditFailed.Store(true)
		}
	}()
	return func() error {
		stop.Store(true)
		wg.Wait()
		r.rec.merge(rec)
		return err
	}
}

// cycle sends one round of the first camps campaigns on cl: reports
// interleaved by user across campaigns, then campaign 0's shares, then a
// close per campaign, then the oracle checks. pace is nil outside the
// measured phase.
func (r *run) cycle(cl *wire.Client, round uint64, pace *pacer, camps int) error {
	// Frames go out in bursts, like a proxy forwarding the reports it
	// collected every few milliseconds: each burst is due at once, is
	// flushed, and the flush blocks until the burst is acknowledged, so
	// the single generator goroutine reads every ack as it arrives.
	rs, err := cl.OpenReportStream(0)
	if err != nil {
		return err
	}
	rs.OnAck = r.acks.onAck
	// from is the instant the burst's ack latency counts from; began is
	// when its first frame was submitted. The server is busy with the
	// burst from began until the flush returns with the covering ack:
	// ingest_rps counts those intervals, not the paced gaps between them.
	var from, began time.Time
	inBurst := 0
	endBurst := func() error {
		err := r.flush(rs, false)
		if r.measuring {
			now := time.Now()
			r.rec.ingest = append(r.rec.ingest, ingestSpan{now, inBurst, now.Sub(began)})
		}
		inBurst = 0
		if pace != nil {
			pace.done()
		}
		return err
	}
	send := func(f *wire.ReportFrame) error {
		f.Round = round
		if inBurst == 0 {
			if pace != nil {
				from = pace.wait(&r.rec)
			}
			began = time.Now()
			if pace == nil {
				from = began
			}
		}
		if err := r.submit(rs, &r.rec, f, from); err != nil {
			return err
		}
		if inBurst++; inBurst == burst {
			return endBurst()
		}
		return nil
	}
	for u := 0; u < r.s.users; u++ {
		for _, c := range r.in.camps[:camps] {
			pl := c.planOf(round)
			if pl.dark[u] {
				continue
			}
			if err := send(c.frames[pl.adSet][u]); err != nil {
				return err
			}
		}
	}
	for _, c := range r.in.camps[:camps] {
		for _, f := range c.planOf(round).shares {
			if err := send(f); err != nil {
				return err
			}
		}
	}
	if inBurst > 0 {
		if err := endBurst(); err != nil {
			return err
		}
	}
	if err := r.flush(rs, true); err != nil {
		return err
	}
	// The closes and checks hold the frame schedule: rounds are closed
	// between bursts of reports, and the closes are timed on their own.
	hold := time.Now()
	for ci := range r.in.camps[:camps] {
		if err := r.closeRound(cl, &r.rec, ci, round); err != nil {
			return err
		}
	}
	for _, c := range r.in.camps[:camps] {
		if err := r.verify(cl, c, round); err != nil {
			return err
		}
	}
	if pace != nil {
		held := time.Since(hold)
		pace.hold(held)
		r.held += held
	}
	return nil
}

// auditLoop issues audits at the workload's audit rate until stop is set.
func (r *run) auditLoop(cl *wire.Client, rec *recorder, stop *atomic.Bool) error {
	rng := rngFor(r.s.name, r.seed, "audits")
	pace := newPacer(r.s.auditRate)
	for !stop.Load() {
		from := pace.wait(rec)
		ci := rng.IntN(len(r.in.camps))
		round := r.latestClosed[ci].Load()
		c := r.in.camps[ci]
		ads := c.planOf(round).ads
		err := r.audit(cl, rec, c, round, ads[rng.IntN(len(ads))], from)
		pace.done()
		if err != nil {
			return err
		}
	}
	return nil
}
