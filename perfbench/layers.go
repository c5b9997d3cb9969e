package main

import "time"

// closeSum is the acceptance check of the close ledger on the traced
// pass: the close handler's self time, its store children and the JSON
// overhead should add up to the traced close_p50_ms.
type closeSum struct {
	CloseP50MS      float64 `json:"close_p50_ms"`
	SelfMS          float64 `json:"backend.close_self_ms"`
	StoreChildrenMS float64 `json:"store_children_ms"`
	JSONOverheadMS  float64 `json:"wire.json_overhead_ms"`
	Ratio           float64 `json:"sum_over_p50"`
}

// layerMetrics derives the per-layer ledger from the traced pass b's
// spans and counter deltas, with the untraced pass a as the overhead
// baseline. Per-operation times are medians in ms; *_s times are totals
// over the measured phase (or medians of the recoveries); counts are
// deltas of the deployment's obs counters.
func layerMetrics(tr *tracer, a, b *pass, prepS float64) (map[string]metric, *closeSum) {
	spans := tr.spans
	dur := func(s span) float64 { return ms(time.Duration(s.end - s.start)) }
	storeChildren := make([]float64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.kind.isStore() {
			storeChildren[s.parent] += dur(s)
		}
	}
	var durs, selfs [numKinds][]float64
	var total [numKinds]float64
	for i, s := range spans {
		d := dur(s)
		durs[s.kind] = append(durs[s.kind], d)
		selfs[s.kind] = append(selfs[s.kind], d-storeChildren[i])
		total[s.kind] += d
	}
	overhead := append(jsonOverhead(spans, kDoClose, kHandleClose), jsonOverhead(spans, kDoAudit, kHandleAudit)...)
	var closeChildren []float64
	for i, s := range spans {
		if s.kind == kHandleClose {
			closeChildren = append(closeChildren, storeChildren[i])
		}
	}

	rb := b.run
	reports := delta(rb, "eyewnder_reports_accepted_total")
	fsyncs := delta(rb, "eyewnder_store_fsyncs_total")
	// With fsync off every report rides without one; the ratio is then
	// the report count.
	perFsync := reports
	if fsyncs > 0 {
		perFsync = reports / fsyncs
	}
	m := map[string]metric{
		"wire.submit_busy_s":         {total[kSubmit] / 1000, "s"},
		"wire.frames_per_ack":        {delta(rb, "eyewnder_wire_report_frames_total") / delta(rb, "eyewnder_wire_ack_batches_total"), "ratio"},
		"wire.json_overhead_ms":      {median(overhead), "ms"},
		"backend.consume_self_ms":    {median(selfs[kConsumeReport]), "ms"},
		"backend.adjust_self_ms":     {median(selfs[kConsumeAdjust]), "ms"},
		"backend.sync_wait_ms":       {median(durs[kSyncReports]), "ms"},
		"backend.close_self_ms":      {median(selfs[kHandleClose]), "ms"},
		"backend.audit_ms":           {median(durs[kHandleAudit]), "ms"},
		"backend.restore_s":          {b.rec.restoreS, "s"},
		"backend.rejected":           {delta(rb, "eyewnder_reports_rejected_total{"), "count"},
		"store.append_report_ms":     {median(durs[kAppendReport]), "ms"},
		"store.append_adjust_ms":     {median(durs[kAppendAdjust]), "ms"},
		"store.sync_ms":              {median(durs[kStoreSync]), "ms"},
		"store.fsyncs":               {fsyncs, "count"},
		"store.reports_per_fsync":    {perFsync, "ratio"},
		"store.wal_bytes_per_report": {walBytesPerReport(rb), "B"},
		"store.snapshot_s":           {total[kSnapshot] / 1000, "s"},
		"store.snapshots":            {delta(rb, "eyewnder_store_snapshots_total"), "count"},
		"store.open_s":               {b.rec.openS, "s"},
		"gen.prep_s":                 {prepS, "s"},
		"gen.late_p99_ms":            {percentile(rb.rec.late, 99), "ms"},
		"trace.overhead":             {rb.ingestRPS() / a.run.ingestRPS(), "ratio"},
	}
	cs := &closeSum{
		CloseP50MS:      percentile(rb.rec.close.v, 50),
		SelfMS:          m["backend.close_self_ms"].Value,
		StoreChildrenMS: median(closeChildren),
		JSONOverheadMS:  median(jsonOverhead(spans, kDoClose, kHandleClose)),
	}
	cs.Ratio = (cs.SelfMS + cs.StoreChildrenMS + cs.JSONOverheadMS) / cs.CloseP50MS
	return m, cs
}

// jsonOverhead pairs each server-side handler span of kind server with
// the client request span of kind client that encloses it — one request
// of a kind is in flight at a time, so containment identifies it — tags
// the handler span with the request's id, and returns, per request, the
// client round trip minus the handler span: framing, JSON and socket
// time on both sides.
func jsonOverhead(spans []span, client, server spanKind) []float64 {
	var cs []int
	for i, s := range spans {
		if s.kind == client {
			cs = append(cs, i)
		}
	}
	var out []float64
	j := 0
	for i := range spans {
		h := &spans[i]
		if h.kind != server {
			continue
		}
		for j < len(cs) && spans[cs[j]].end < h.start {
			j++
		}
		if j == len(cs) {
			break
		}
		c := spans[cs[j]]
		if c.start <= h.start && h.end <= c.end {
			h.req = c.req
			out = append(out, ms(time.Duration((c.end-c.start)-(h.end-h.start))))
		}
	}
	return out
}
