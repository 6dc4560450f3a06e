package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deferstm/internal/kv"
	"deferstm/internal/repl"
	"deferstm/internal/stm"
)

const (
	replKeys      = 50_000
	batchEvery    = 8 // one update in batchEvery is a 3-key batch
	passTimeout   = time.Minute
	walReadChunks = 1 << 20
	replScans     = 5 // timed scans of each caught-up replica
)

// replUpdate is one pre-generated primary update: a PUT, or a 3-key
// batch that usually spans lanes.
type replUpdate struct {
	keys []int
	vals []string
}

// replPass is one fresh replica's catch-up.
type replPass struct {
	ready, took time.Duration
	st          repl.Status
	tm          stm.StatsSnapshot
	cursors     []uint64
	cut         map[string]string
	scans       []float64 // timed full scans of the caught-up replica, ms
}

// catchUp starts a fresh replica against the primary and times it from
// Run to WaitCaughtUp; the replica's state is read after the timer.
func catchUp(cfg config, addr string, parent uint64) (replPass, error) {
	rt := stm.NewDefault()
	if cfg.reg != nil {
		rt.SetMetrics(stm.NewMetrics(cfg.reg))
	}
	r := repl.New(rt, repl.Options{Primary: addr, Registry: cfg.reg})
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	ran := make(chan error, 1)
	id := cfg.tr.reserve()
	start := time.Now()
	go func() { ran <- r.Run(ctx) }()
	var p replPass
	err := r.WaitReady(ctx)
	p.ready = time.Since(start)
	cfg.tr.span("repl", "wait-ready", start, id)
	if err == nil {
		t := time.Now()
		err = r.WaitCaughtUp(ctx)
		cfg.tr.span("repl", "wait-caught-up", t, id)
	}
	p.took = time.Since(start)
	cfg.tr.spanAs(id, "repl", "catch-up", start, parent)
	p.st, p.tm, p.cursors = r.Status(), rt.Snapshot(), r.Cursors()
	cancel()
	if runErr := <-ran; err == nil && !errors.Is(runErr, context.Canceled) {
		err = runErr
	}
	if err != nil {
		return p, fmt.Errorf("replica: %w", err)
	}
	settle()
	for i := 0; i < replScans; i++ {
		t := time.Now()
		err := r.Store().Scan(func(string, string) bool { return true })
		p.scans = append(p.scans, ms(time.Since(t)))
		cfg.tr.span("kv", "replica-scan", t, parent)
		if err != nil {
			return p, fmt.Errorf("replica scan: %w", err)
		}
	}
	p.cut, err = scanAll(r.Store())
	_ = r.Store().Close() // a ModeNone store has nothing to flush
	return p, err
}

func scanAll(s *kv.Store) (map[string]string, error) {
	cut := map[string]string{}
	err := s.Scan(func(k, v string) bool {
		cut[k] = v
		return true
	})
	return cut, err
}

// checkReplica checks a caught-up replica: its contents equal the
// primary's, each lane's cursor equals the primary's durable watermark,
// and the stream never reconnected.
func checkReplica(want map[string]string, durable []uint64, p replPass) error {
	if len(p.cut) != len(want) {
		return fmt.Errorf("replica holds %d keys, primary %d", len(p.cut), len(want))
	}
	for k, v := range want {
		if got, ok := p.cut[k]; !ok || got != v {
			return fmt.Errorf("replica key %q = %.16q (present %v), primary %.16q", k, got, ok, v)
		}
	}
	if len(p.cursors) != len(durable) {
		return fmt.Errorf("replica has %d lanes, primary %d", len(p.cursors), len(durable))
	}
	for i := range durable {
		if p.cursors[i] != durable[i] {
			return fmt.Errorf("lane %d: replica cursor %d, primary durable %d", i, p.cursors[i], durable[i])
		}
	}
	if p.st.Reconnects != 0 {
		return fmt.Errorf("%d reconnects", p.st.Reconnects)
	}
	return nil
}

// runReplCatchup: a 4-lane primary, preloaded with about 210k WAL
// records and served over loopback, feeds one fresh replica per pass;
// each pass is timed from Run to WaitCaughtUp.
func runReplCatchup(cfg config) (*result, error) {
	res := newResult()
	keys := keyNames(replKeys)
	r := newRand(cfg.seed, 0)
	ups := make([]replUpdate, cfg.replWrites)
	for i := range ups {
		n := 1
		if i%batchEvery == batchEvery-1 {
			n = 3
		}
		u := replUpdate{}
		for j := 0; j < n; j++ {
			k := r.IntN(replKeys)
			u.keys = append(u.keys, k)
			u.vals = append(u.vals, makeValue(cfg.seed, k, uint32(i+1)))
		}
		ups[i] = u
	}

	// The primary's device has no fsync delay: nothing is timed on its
	// write side.
	p, err := setupRuns(cfg, 0, loader{n: len(ups), fill: func(i int, b *kv.Batch) {
		for j, k := range ups[i].keys {
			b.Put(keys[k], ups[i].vals[j])
		}
	}}, 0, replKeys, res)
	if err != nil {
		return nil, err
	}
	defer p.close()

	want, err := scanAll(p.store)
	if err != nil {
		return nil, err
	}
	var durable []uint64
	for _, l := range p.store.Logs() {
		durable = append(durable, l.DurableWatermark())
	}

	settle()
	pid := cfg.tr.reserve()
	start := time.Now()
	var passes []replPass
	for len(passes) == 0 || time.Since(start) < cfg.duration {
		rp, err := catchUp(cfg, p.addr, pid)
		if err != nil {
			return nil, err
		}
		passes = append(passes, rp)
	}
	cfg.tr.spanAs(pid, "bench", "passes", start, 0)

	var total time.Duration
	var records, batches, shipped, reconnects float64
	var tm stm.StatsSnapshot
	var took, ready, scans []float64
	for _, rp := range passes {
		total += rp.took
		took = append(took, ms(rp.took))
		ready = append(ready, ms(rp.ready))
		scans = append(scans, rp.scans...)
		records += float64(rp.st.AppliedRecords)
		batches += float64(rp.st.AppliedBatches)
		shipped += float64(rp.st.BytesShipped)
		reconnects += float64(rp.st.Reconnects)
		tm = addStats(tm, rp.tm)
		res.attempted += rp.st.AppliedRecords
		if err := checkReplica(want, durable, rp); err != nil {
			res.fail(rp.st.AppliedRecords, "repl-catchup: %v", err)
		}
	}
	secs := total.Seconds()
	res.throughput = records / secs
	res.set("records_per_s", res.throughput)
	res.set("ops_per_s", batches/secs)
	res.set("mib_per_s", shipped/(1<<20)/secs)
	res.set("p50_ms", quantile(took, 0.5))
	res.set("p90_ms", quantile(took, 0.9))
	res.set("scan_p50_ms", median(scans))

	stmLayers(res, tm, records)
	res.set("stm.tx_p50_us", histMs(cfg.reg, "deferstm_tx_latency_seconds", "p50_ns")*1e3)
	res.set("server.request_errors", float64(p.srv.Stats().RequestErrs))
	res.set("repl.ready_ms", median(ready))
	res.set("repl.records_per_batch", records/batches)
	res.set("repl.bytes_per_record", shipped/records)
	res.set("repl.tx_per_record", float64(tm.Commits)/records)
	res.set("repl.reconnects", reconnects)
	if cfg.tr != nil {
		if err := timeWALReads(cfg, res, p, durable); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timeWALReads reads every lane of the primary's WAL with ReadRange, in
// walReadChunks-byte calls, and reports the payload rate.
func timeWALReads(cfg config, res *result, p *kvHost, durable []uint64) error {
	var n int
	var spent time.Duration
	for lane, l := range p.store.Logs() {
		for after := uint64(0); after < durable[lane]; {
			t := time.Now()
			recs, err := l.ReadRange(after, durable[lane], walReadChunks)
			spent += time.Since(t)
			cfg.tr.span("wal", "read-range", t, 0)
			if err != nil {
				return fmt.Errorf("lane %d ReadRange: %w", lane, err)
			}
			for _, rec := range recs {
				n += len(rec.Payload)
				after = rec.LSN
			}
		}
	}
	res.set("wal.read_mib_per_s", float64(n)/(1<<20)/spent.Seconds())
	return nil
}
