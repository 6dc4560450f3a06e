package main

import (
	"fmt"
	"sync"
	"time"

	"deferstm/internal/server"
)

// runKVRead: connection 0 GETs uniform keys, alternating light and full
// slices, while connection 1 PUTs uniform keys with putWindow in flight
// and runs a full-store snapshot Scan about once a second.
func runKVRead(cfg config) (*result, error) {
	res := newResult()
	keys := keyNames(cfg.keys)
	vals := preloadValues(cfg.seed, cfg.keys)
	gets := make([]int, ringLen)
	putOps := make([]putOp, ringLen)
	rg, rp := newRand(cfg.seed, 0), newRand(cfg.seed, 1)
	for s := range gets {
		gets[s] = rg.IntN(cfg.keys)
		k, ver := rp.IntN(cfg.keys), uint32(1+s)
		putOps[s] = putOp{key: k, ver: ver, val: makeValue(cfg.seed, k, ver)}
	}
	// A key may hold its preload value or any value PUT to it.
	valid := func(key int, ver uint32) bool {
		return ver == 0 || (int(ver) <= ringLen && putOps[ver-1].key == key)
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
	end := start.Add(cfg.duration)
	pid := cfg.tr.reserve()

	// Writer: PUTs plus the periodic scan.
	var wg sync.WaitGroup
	var puts int
	var putErrs uint64
	var putErr error
	var scans []float64
	var scanProblems []string
	scan := func() {
		took, _, err := scanStore(cfg, h.store, cfg.keys, pid, valid)
		scans = append(scans, ms(took))
		if err != nil {
			scanProblems = append(scanProblems, err.Error())
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastScan := time.Now()
		puts, putErr = loop(cfg, h.clients[1], putWindow, end, pid, 0,
			func(i int) server.Request {
				op := &putOps[i%ringLen]
				return server.Request{Op: server.OpPut, Key: keys[op.key], Val: op.val}
			},
			func(_ int, _ server.Response, err error, _ time.Duration) {
				if err != nil {
					putErrs++
				}
			},
			func() {
				if time.Since(lastScan) >= scanInterval {
					scan()
					lastScan = time.Now()
				}
			})
	}()

	// Reader: every GET must return an intact value of its key that
	// some write produced.
	var getErrs uint64
	var getProblems []string
	reads, readErr := alternate(cfg, h.clients[0], start, end, pid,
		func(i int) server.Request { return server.Request{Op: server.OpGet, Key: keys[gets[i%ringLen]]} },
		func(i int, resp server.Response, err error) {
			key := gets[i%ringLen]
			if err == nil && !resp.Found {
				err = fmt.Errorf("GET key %d: not found", key)
			}
			if err == nil {
				var ver uint32
				if ver, err = parseValue(cfg.seed, key, resp.Val); err == nil && !valid(key, ver) {
					err = fmt.Errorf("GET key %d: version %d, which no write produced", key, ver)
				}
			}
			if err != nil {
				getErrs++
				if len(getProblems) < 20 {
					getProblems = append(getProblems, err.Error())
				}
			}
		})
	wg.Wait()
	elapsed := time.Since(start)
	cfg.tr.spanAs(pid, "bench", "load", start, 0)
	for _, err := range []error{readErr, putErr} {
		if err != nil {
			return nil, err
		}
	}
	s1, err := h.snap()
	if err != nil {
		return nil, err
	}
	if len(scans) == 0 { // a run shorter than scanInterval
		scan()
	}

	res.attempted = uint64(reads.next + puts + len(scans))
	res.failed = getErrs + putErrs + uint64(len(scanProblems))
	res.problems = append(getProblems, scanProblems...)
	res.throughput = float64(reads.fullOps) / reads.fullTime.Seconds()
	res.set("ops_per_s", res.throughput)
	res.set("p50_ms", quantile(reads.lat, 0.5))
	res.set("p90_ms", quantile(reads.lat, 0.9))
	res.set("scan_p50_ms", median(scans))
	res.set("mib_per_s", res.throughput*valueLen/(1<<20))
	res.set("records_per_s", float64(s1.wal.Records-s0.wal.Records)/elapsed.Seconds())
	userBytes := float64(puts * (len(keys[0]) + valueLen))
	kvLayers(cfg, res, s0, s1, float64(reads.next+puts), float64(len(scans)), userBytes, reads.lat)
	return res, nil
}
