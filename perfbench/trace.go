package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// spanKind names a layer boundary the traced run times from outside.
type spanKind uint8

const (
	kSubmit        spanKind = iota // client: ReportStream.Submit
	kFlush                         // client: ReportStream.Flush / Close
	kDoClose                       // client: Client.Do(close_round)
	kDoAudit                       // client: Client.Do(audit_ad)
	kConsumeReport                 // backend: ConsumeReport, report frame
	kConsumeAdjust                 // backend: ConsumeReport, adjustment frame
	kSyncReports                   // backend: SyncReports (ack barrier)
	kHandleClose                   // backend: handler for close_round
	kHandleAudit                   // backend: handler for audit_ad
	kAppendReport                  // store: AppendReport
	kAppendAdjust                  // store: AppendAdjust
	kAppendClose                   // store: AppendClose
	kAppendOpen                    // store: AppendOpen
	kStoreSync                     // store: Sync
	kSnapshot                      // store: Snapshot (capture included)
	numKinds
)

var kindNames = [numKinds]string{
	"client.submit", "client.flush", "client.close_round", "client.audit_ad",
	"backend.consume_report", "backend.consume_adjust", "backend.sync_reports",
	"backend.close_round", "backend.audit_ad",
	"store.append_report", "store.append_adjust", "store.append_close", "store.append_open",
	"store.sync", "store.snapshot",
}

func (k spanKind) isStore() bool { return k >= kAppendReport }

// span is one timed call. parent is the innermost span open on the same
// goroutine when it began (-1 for a root); req ties the spans of one
// request together (a frame's campaign/round/user/kind, or a client
// request's sequence number, which the analysis copies onto the
// server-side handler span it encloses).
type span struct {
	start, end int64 // ns since the tracer started
	parent     int32
	kind       spanKind
	req        uint64
	gid        int64
}

// tracer keeps spans in memory; they are written out after the run.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	open  map[int64][]int32 // goroutine → stack of open span indices
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: make(map[int64][]int32), spans: make([]span, 0, 1<<16)}
}

// begin opens a span, or returns -1 while tracing is off (set-up,
// warm-up and recovery are not traced).
func (t *tracer) begin(k spanKind, req uint64) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	g := goid()
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: now, parent: parent, kind: k, req: req, gid: g})
	t.open[g] = append(t.open[g], i)
	return i
}

// end closes a span begun on the calling goroutine.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.end = now
	st := t.open[s.gid]
	if n := len(st); n > 0 && st[n-1] == i {
		t.open[s.gid] = st[:n-1]
	}
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:"). It is how a store call is attributed to
// the backend span that made it without any in-program context.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// write dumps the spans as CSV: name, start and end (ns since the tracer
// started), parent index, request id.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", kindNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frameReq is the request id of a streamed frame: campaign, round, user
// and kind, so the client's submit and the backend's consume of one frame
// share it.
func frameReq(f *wire.ReportFrame) uint64 {
	return uint64(f.Campaign)<<48 | (f.Round&0xFFFFFFFF)<<16 | uint64(f.User&0x7FFF)<<1 | uint64(f.Kind&1)
}

// tracedStore times the store calls the backend makes while it serves
// traffic. Every Store method is forwarded: the embedded interface covers
// the untimed ones (recovery state, registrations, provisioning, Close).
type tracedStore struct {
	store.Store
	tr *tracer
}

var _ store.Store = (*tracedStore)(nil)

func (s *tracedStore) AppendReport(campaign uint32, round uint64, user, d, w int, n, seed uint64, keystream byte, configVersion uint32, cells []uint64) error {
	i := s.tr.begin(kAppendReport, 0)
	defer s.tr.end(i)
	return s.Store.AppendReport(campaign, round, user, d, w, n, seed, keystream, configVersion, cells)
}

func (s *tracedStore) AppendAdjust(campaign uint32, round uint64, user int, cells []uint64) error {
	i := s.tr.begin(kAppendAdjust, 0)
	defer s.tr.end(i)
	return s.Store.AppendAdjust(campaign, round, user, cells)
}

func (s *tracedStore) AppendClose(campaign uint32, round uint64) error {
	i := s.tr.begin(kAppendClose, 0)
	defer s.tr.end(i)
	return s.Store.AppendClose(campaign, round)
}

func (s *tracedStore) AppendOpen(campaign uint32, round uint64, rosterSize, d, w int, seed uint64, keystream byte, configVersion, rosterVersion uint32) error {
	i := s.tr.begin(kAppendOpen, 0)
	defer s.tr.end(i)
	return s.Store.AppendOpen(campaign, round, rosterSize, d, w, seed, keystream, configVersion, rosterVersion)
}

func (s *tracedStore) Sync() error {
	i := s.tr.begin(kStoreSync, 0)
	defer s.tr.end(i)
	return s.Store.Sync()
}

func (s *tracedStore) Snapshot(capture func() ([]*store.RoundState, error)) error {
	i := s.tr.begin(kSnapshot, 0)
	defer s.tr.end(i)
	return s.Store.Snapshot(capture)
}

// tracedSink times the backend's streamed-frame entry points. It forwards
// SyncReports, so every ack stays a durability barrier.
type tracedSink struct {
	be *backend.Backend
	tr *tracer
}

var (
	_ wire.ReportSink       = (*tracedSink)(nil)
	_ wire.ReportDurability = (*tracedSink)(nil)
)

func (s *tracedSink) ConsumeReport(f *wire.ReportFrame) error {
	k := kConsumeReport
	if f.Kind == wire.FrameKindAdjust {
		k = kConsumeAdjust
	}
	i := s.tr.begin(k, frameReq(f))
	defer s.tr.end(i)
	return s.be.ConsumeReport(f)
}

func (s *tracedSink) SyncReports() error {
	i := s.tr.begin(kSyncReports, 0)
	defer s.tr.end(i)
	return s.be.SyncReports()
}

// tracedHandler times the JSON control-plane requests the workloads
// issue; the benchmark's own verification requests pass through untimed.
func tracedHandler(h wire.Handler, tr *tracer) wire.Handler {
	return func(m *wire.Msg) (string, interface{}, error) {
		var k spanKind
		switch m.Type {
		case wire.TypeCloseRound:
			k = kHandleClose
		case wire.TypeAuditAd:
			k = kHandleAudit
		default:
			return h(m)
		}
		i := tr.begin(k, 0)
		defer tr.end(i)
		return h(m)
	}
}
