package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"deferstm/internal/kv"
)

// shortConfig runs each workload for about a second on small inputs.
func shortConfig() config {
	cfg := fullConfig(7, time.Second)
	cfg.setups = 1
	cfg.keys = 20_000
	cfg.dedupBytes = 1 << 20
	cfg.replWrites = 10_000
	return cfg
}

func TestWorkloadsShort(t *testing.T) {
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := wl(shortConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", res.attempted, res.failed, res.problems)
			}
			for _, m := range endToEnd {
				if !(res.metrics[m] > 0) {
					t.Errorf("%s = %v, want > 0", m, res.metrics[m])
				}
			}
		})
	}
}

func TestTracedRunWritesTrace(t *testing.T) {
	cfg := shortConfig()
	cfg.duration = 2 * time.Second
	path := filepath.Join(t.TempDir(), "trace.json")
	res, err := tracedRun(runKVWrite, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"bench.trace_overhead", "wal.records_per_flush", "stm.tx_per_op", "server.ack_p50_ms", "wal.fsync_ms"} {
		if !(res.metrics[m] > 0) {
			t.Errorf("%s = %v, want > 0", m, res.metrics[m])
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("trace file: %v", err)
	}
}

func TestCheckRejectsFlippedGetValue(t *testing.T) {
	const seed, key = 3, 41
	v := makeValue(seed, key, 5)
	if ver, err := parseValue(seed, key, v); err != nil || ver != 5 {
		t.Fatalf("intact value: version %d, %v", ver, err)
	}
	for i := range v {
		b := []byte(v)
		b[i] ^= 1
		if _, err := parseValue(seed, key, string(b)); err == nil {
			t.Fatalf("value with byte %d flipped passed the check", i)
		}
	}
	if _, err := parseValue(seed, key+1, v); err == nil {
		t.Fatal("another key's value passed the check")
	}
	if _, err := parseValue(seed+1, key, v); err == nil {
		t.Fatal("another seed's value passed the check")
	}
}

func TestCheckRejectsMissingScanKey(t *testing.T) {
	const seed, n = 3, 10
	pair := func(i int) (string, string) { return keyName(i), makeValue(seed, i, 0) }
	all := func(int, uint32) bool { return true }
	if _, err := checkCut(seed, n, n, pair, all); err != nil {
		t.Fatalf("full cut: %v", err)
	}
	if _, err := checkCut(seed, n, n-1, pair, all); err == nil {
		t.Fatal("cut missing a key passed the check")
	}
	dup := func(i int) (string, string) { return pair(i / 2) }
	if _, err := checkCut(seed, n, n, dup, all); err == nil {
		t.Fatal("cut with duplicate keys passed the check")
	}
}

func TestCheckRejectsTruncatedDedupOutput(t *testing.T) {
	cfg := shortConfig()
	input := dedupInput(cfg, 0)
	dcfg := dedupConfig()
	dcfg.InputRead = 0
	p, err := runDedupPass(cfg, dcfg, input, 0)
	if err != nil {
		t.Fatal(err)
	}
	packets, uniques := dedupReference(input, dcfg.Chunk)
	if err := checkDedup(p.res, p.out, input, packets, uniques); err != nil {
		t.Fatalf("intact output: %v", err)
	}
	if err := checkDedup(p.res, p.out[:len(p.out)-1], input, packets, uniques); err == nil {
		t.Fatal("truncated output passed the check")
	}
	if err := checkDedup(p.res, p.out, input, packets, uniques+1); err == nil {
		t.Fatal("wrong unique-chunk count passed the check")
	}
}

func TestCheckRejectsDroppedReplicaRecord(t *testing.T) {
	cfg := shortConfig()
	keys := keyNames(replKeys)
	var ups []replUpdate
	for i := 0; i < 2000; i++ {
		k := (i * 7919) % replKeys
		ups = append(ups, replUpdate{keys: []int{k}, vals: []string{makeValue(cfg.seed, k, uint32(i+1))}})
	}
	p, err := setupKV(cfg, 0, loader{n: len(ups), fill: func(i int, b *kv.Batch) {
		b.Put(keys[ups[i].keys[0]], ups[i].vals[0])
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	want, err := scanAll(p.store)
	if err != nil {
		t.Fatal(err)
	}
	var durable []uint64
	for _, l := range p.store.Logs() {
		durable = append(durable, l.DurableWatermark())
	}
	rp, err := catchUp(cfg, p.addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplica(want, durable, rp); err != nil {
		t.Fatalf("caught-up replica: %v", err)
	}

	// Drop the record of one key from the replica's state.
	for k := range rp.cut {
		delete(rp.cut, k)
		break
	}
	if err := checkReplica(want, durable, rp); err == nil {
		t.Fatal("replica missing a key passed the check")
	}
	// A replica whose cursor stopped one record short.
	rp2, err := catchUp(cfg, p.addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rp2.cursors[0]--
	if err := checkReplica(want, durable, rp2); err == nil {
		t.Fatal("replica one record behind passed the check")
	}
}
