package main

import (
	"fmt"
	"sync"
	"time"

	"deferstm/internal/check"
	"deferstm/internal/kv"
	"deferstm/internal/server"
	"deferstm/internal/stm"
)

// quietScans is how many full-store scans time the quiet store after
// kv-write's load; scan_p50_ms is their median.
const quietScans = 21

// runKVWrite: both connections PUT 64-byte values to zipfian (θ 0.99)
// keys of the preloaded store, alternating light slices (one request in
// flight per connection) and full slices (fullWindow in flight).
func runKVWrite(cfg config) (*result, error) {
	res := newResult()
	keys := keyNames(cfg.keys)
	vals := preloadValues(cfg.seed, cfg.keys)
	z := newZipf(cfg.keys, 0.99)
	var rings [2][]putOp
	for c := range rings {
		r := newRand(cfg.seed, uint64(c))
		rings[c] = make([]putOp, ringLen)
		for s := range rings[c] {
			k := z.draw(r)
			ver := uint32(1 + c*ringLen + s)
			rings[c][s] = putOp{key: k, ver: ver, val: makeValue(cfg.seed, k, ver)}
		}
	}

	h, err := setupRuns(cfg, fsyncCost, batchLoader(keys, vals), 2, cfg.keys, res)
	if err != nil {
		return nil, err
	}
	defer h.close()

	s0, err := h.snap()
	if err != nil {
		return nil, err
	}
	settle()
	start := time.Now()
	pid := cfg.tr.reserve()
	var acks [2][]ack
	var errs [2]uint64
	var tally [2]phases
	var loopErr [2]error
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ring := rings[c]
			tally[c], loopErr[c] = alternate(cfg, h.clients[c], start, start.Add(cfg.duration), pid,
				func(i int) server.Request {
					op := &ring[i%ringLen]
					return server.Request{Op: server.OpPut, Key: keys[op.key], Val: op.val}
				},
				func(i int, resp server.Response, err error) {
					if err != nil {
						errs[c]++
						return
					}
					acks[c] = append(acks[c], ack{slot: i % ringLen, token: resp.LSN})
				})
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cfg.tr.spanAs(pid, "bench", "load", start, 0)
	for _, err := range loopErr {
		if err != nil {
			return nil, err
		}
	}
	s1, err := h.snap()
	if err != nil {
		return nil, err
	}

	ops := tally[0].next + tally[1].next
	res.attempted = uint64(ops)
	res.failed = errs[0] + errs[1]
	lat := append(tally[0].lat, tally[1].lat...)
	userBytes := float64(len(keys[0]) + valueLen)
	for _, t := range tally {
		res.throughput += float64(t.fullOps) / t.fullTime.Seconds()
	}
	res.set("ops_per_s", res.throughput)
	res.set("p50_ms", quantile(lat, 0.5))
	res.set("p90_ms", quantile(lat, 0.9))
	res.set("mib_per_s", res.throughput*userBytes/(1<<20))
	res.set("records_per_s", float64(s1.wal.Records-s0.wal.Records)/elapsed.Seconds())

	// Checks, outside the timed run.
	scans, err := checkWrites(cfg, h, rings, acks, res)
	if err != nil {
		return nil, err
	}
	res.set("scan_p50_ms", median(scans))
	kvLayers(cfg, res, s0, s1, float64(ops), 0, userBytes*float64(ops), lat)
	return res, nil
}

// checkWrites checks kv-write's acknowledged PUTs: each token is at or
// below its lane's durable watermark; each key holds the value of its
// acked PUT with the highest LSN (quietScans timed scans read the store); and
// a store reopened from the device recovers every acked LSN. It returns
// the scan times in ms.
func checkWrites(cfg config, h *kvHost, rings [2][]putOp, acks [2][]ack, res *result) ([]float64, error) {
	type last struct {
		lsn uint64
		ver uint32
	}
	want := make([]last, cfg.keys)
	acked := make([]uint64, shards)
	logs := h.store.Logs()
	for c := range acks {
		for _, a := range acks[c] {
			lane, lsn := kv.TokenLane(a.token), kv.TokenLSN(a.token)
			if lane >= len(logs) || lsn > logs[lane].DurableWatermark() {
				res.fail(1, "ack %#x is beyond its lane's durable watermark", a.token)
				continue
			}
			acked[lane] = max(acked[lane], lsn)
			op := rings[c][a.slot]
			if lsn > want[op.key].lsn {
				want[op.key] = last{lsn, op.ver}
			}
		}
	}
	var scans []float64
	for i := 0; i < quietScans; i++ {
		settle()
		took, vers, err := scanStore(cfg, h.store, cfg.keys, 0, func(int, uint32) bool { return true })
		scans = append(scans, ms(took))
		if err != nil {
			res.fail(1, "kv-write: %v", err)
			continue
		}
		if i > 0 {
			continue
		}
		for k, v := range vers {
			if v != want[k].ver {
				res.fail(1, "key %d holds version %d, want %d (acked at LSN %d)", k, v, want[k].ver, want[k].lsn)
			}
		}
	}

	if err := h.shutdown(); err != nil {
		return nil, err
	}
	if err := h.store.Close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	re, info, err := kv.Open(stm.NewDefault(), h.dev, kv.Options{Mode: kv.ModeGroup, Shards: shards})
	if err != nil {
		return nil, fmt.Errorf("reopen store: %w", err)
	}
	held := make([]uint64, len(info.Lanes))
	for i, l := range info.Lanes {
		held[i] = l.LastLSN
	}
	for _, v := range check.AckedPrefixLanes(acked, held) {
		res.fail(1, "recovery: %s", v)
	}
	if err := re.Close(); err != nil {
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	return scans, nil
}

// preloadValues are the version-0 values of keys 0..n-1.
func preloadValues(seed uint64, n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = makeValue(seed, i, 0)
	}
	return vals
}
