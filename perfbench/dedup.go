package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"deferstm/internal/chunker"
	"deferstm/internal/compress"
	"deferstm/internal/dedup"
	"deferstm/internal/simio"
	"deferstm/internal/stm"
)

// dedupConfig is the paper's Figure 3 kernel with cmd/dedupbench's
// costs: 20 ms input read per packet, effort-128 compression, 64 KiB
// average chunks, run by the STM+DeferAll backend on two workers.
func dedupConfig() dedup.Config {
	return dedup.Config{
		Backend: dedup.STMDeferAll, Threads: 2,
		InputRead: 20 * time.Millisecond, CompressEffort: 128,
		Chunk: chunker.Config{AvgBits: 16},
	}
}

// dedupOutputLatency is cmd/dedupbench's output file cost model.
func dedupOutputLatency() simio.Latency {
	return simio.Latency{
		Open: 2 * time.Millisecond, Close: 1500 * time.Microsecond,
		Write: 1300 * time.Microsecond, WritePerKB: 10 * time.Microsecond,
		Read: 1300 * time.Microsecond, Fsync: 1500 * time.Microsecond,
	}
}

// dedupPass is one timed dedup.Run and what the check needs of it.
type dedupPass struct {
	res  dedup.Result
	out  []byte
	fs   simio.FSStats
	took time.Duration
}

func runDedupPass(cfg config, dcfg dedup.Config, input []byte, parent uint64) (dedupPass, error) {
	fs := simio.NewFS(dedupOutputLatency())
	start := time.Now()
	r, err := dedup.Run(dcfg, input, fs, "out")
	p := dedupPass{res: r, took: time.Since(start)}
	cfg.tr.span("dedup", "run", start, parent)
	if err != nil {
		return p, fmt.Errorf("dedup run: %w", err)
	}
	if p.out, err = fs.ReadAll("out"); err != nil {
		return p, fmt.Errorf("dedup output: %w", err)
	}
	p.fs = fs.Stats()
	return p, nil
}

// runDedup runs dedup passes back to back. Each pass deduplicates its
// own 8 MiB input at 50% duplication, generated from (seed, pass) before
// the pass's timer starts, so a run averages over many inputs rather
// than one input's chunk count. Set-up is one untimed warm-up pass.
func runDedup(cfg config) (*result, error) {
	res := newResult()
	dcfg := dedupConfig()
	var setups, heaps []float64
	pass := 0
	for ; pass < cfg.setups; pass++ {
		input := dedupInput(cfg, pass)
		settle()
		p, err := runDedupPass(cfg, dcfg, input, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.took.Seconds())
		// The live heap holds the pass's input and output.
		heaps = append(heaps, float64(settle()))
		runtime.KeepAlive(input)
		runtime.KeepAlive(p.out)
	}
	res.set("setup_s", median(setups))
	res.set("heap_mib", median(heaps)/(1<<20))

	var total time.Duration
	var tm stm.StatsSnapshot
	var bytesIn, nPackets, nUniques, writes, fsyncs, factors float64
	var took, decode []float64
	pid := cfg.tr.reserve()
	start := time.Now()
	for n := 0; n == 0 || total < cfg.duration; n, pass = n+1, pass+1 {
		input := dedupInput(cfg, pass)
		packets, uniques := dedupReference(input, dcfg.Chunk)
		settle()
		p, err := runDedupPass(cfg, dcfg, input, pid)
		if err != nil {
			return nil, err
		}
		total += p.took
		took = append(took, ms(p.took))
		bytesIn += float64(len(input))
		nPackets += float64(p.res.Packets)
		nUniques += float64(p.res.Uniques)
		writes += float64(p.fs.Writes)
		fsyncs += float64(p.fs.Fsyncs)
		factors += p.res.DedupFactor()
		tm = addStats(tm, p.res.TM)
		t := time.Now()
		err = checkDedup(p.res, p.out, input, packets, uniques)
		decode = append(decode, ms(time.Since(t)))
		res.attempted += p.res.Packets
		if err != nil {
			res.fail(p.res.Packets, "dedup pass %d: %v", pass, err)
		}
	}
	cfg.tr.spanAs(pid, "bench", "passes", start, 0)

	secs := total.Seconds()
	res.throughput = bytesIn / (1 << 20) / secs
	res.set("mib_per_s", res.throughput)
	res.set("ops_per_s", nUniques/secs)
	res.set("records_per_s", nPackets/secs)
	res.set("p50_ms", quantile(took, 0.5))
	res.set("p90_ms", quantile(took, 0.9))
	res.set("scan_p50_ms", median(decode))

	passes := float64(len(took))
	stmLayers(res, tm, nPackets)
	res.set("dedup.quiesce_ms", float64(tm.QuiesceNanos)/1e6/passes)
	res.set("dedup.conflicts_per_packet", float64(tm.AbortsConflict)/nPackets)
	res.set("dedup.deferred_ops_per_packet", float64(tm.DeferredOps)/nPackets)
	res.set("dedup.serial_runs", float64(tm.SerialRuns))
	res.set("dedup.dedup_factor", factors/passes)
	res.set("simio.writes_per_packet", writes/nPackets)
	res.set("simio.fsyncs_per_packet", fsyncs/nPackets)
	if cfg.tr != nil {
		timeKernels(cfg, res, dedupInput(cfg, 0), dcfg)
	}
	return res, nil
}

// dedupInput is pass's input.
func dedupInput(cfg config, pass int) []byte {
	return dedup.GenInput(cfg.dedupBytes, 0.5, splitmix(cfg.seed)+uint64(pass))
}

// dedupReference chunks input independently of the pipeline and counts
// its packets and distinct chunks.
func dedupReference(input []byte, cc chunker.Config) (packets, uniques uint64) {
	seen := map[[sha256.Size]byte]bool{}
	for _, ch := range chunker.New(cc).Split(input) {
		packets++
		fp := sha256.Sum256(ch.Data)
		if !seen[fp] {
			seen[fp] = true
			uniques++
		}
	}
	return packets, uniques
}

// checkDedup checks one pass: the output decodes to the input, every
// pool buffer came back, the packet and unique-chunk counts match an
// independent chunk-and-fingerprint pass over the input, and the dedup
// factor is the input's length over the output's.
func checkDedup(r dedup.Result, out, input []byte, packets, uniques uint64) error {
	dec, err := dedup.Decode(out)
	if err != nil {
		return fmt.Errorf("decode output: %w", err)
	}
	if !bytes.Equal(dec, input) {
		return fmt.Errorf("output decodes to %d bytes that differ from the %d-byte input", len(dec), len(input))
	}
	if r.PoolOut != 0 {
		return fmt.Errorf("%d pool buffers outstanding", r.PoolOut)
	}
	if r.Packets != packets || r.Uniques != uniques {
		return fmt.Errorf("%d packets, %d unique; want %d, %d", r.Packets, r.Uniques, packets, uniques)
	}
	if r.BytesIn != uint64(len(input)) || r.BytesOut != uint64(len(out)) {
		return fmt.Errorf("dedup factor %d/%d bytes, want %d/%d", r.BytesIn, r.BytesOut, len(input), len(out))
	}
	return nil
}

// timeKernels times the pipeline's two compute kernels directly: the
// chunker over the whole input and CompressLevel over each unique chunk.
func timeKernels(cfg config, res *result, input []byte, dcfg dedup.Config) {
	start := time.Now()
	chunks := chunker.New(dcfg.Chunk).Split(input)
	res.set("chunker.mib_per_s", float64(len(input))/(1<<20)/time.Since(start).Seconds())
	cfg.tr.span("chunker", "split", start, 0)

	seen := map[[sha256.Size]byte]bool{}
	var n int
	var spent time.Duration
	var dst []byte
	for _, ch := range chunks {
		fp := sha256.Sum256(ch.Data)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		t := time.Now()
		dst = compress.CompressLevel(dst[:0], ch.Data, dcfg.CompressEffort)
		spent += time.Since(t)
		cfg.tr.span("compress", "compress-level", t, 0)
		n += len(ch.Data)
	}
	res.set("compress.mib_per_s", float64(n)/(1<<20)/spent.Seconds())
}

// addStats sums two STM counter snapshots.
func addStats(a, b stm.StatsSnapshot) stm.StatsSnapshot {
	a.Starts += b.Starts
	a.Commits += b.Commits
	a.AbortsConflict += b.AbortsConflict
	a.RetryParks += b.RetryParks
	a.QuiesceNanos += b.QuiesceNanos
	a.DeferredOps += b.DeferredOps
	a.SerialRuns += b.SerialRuns
	return a
}
