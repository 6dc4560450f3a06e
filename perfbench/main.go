// Command perfbench is the repository benchmark. It runs one workload in
// one process — the kv store behind its TCP server driven by pipelined
// clients over loopback, the dedup pipeline, or a replica catching up
// with a primary — checks the results, and prints one JSON line of
// metrics as its last line of output.
//
//	perfbench --workload kv-write --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// twice at half length, first with the layers' instruments attached and
// spans recorded and then untraced, prints the per-layer metrics and
// writes a Chrome trace-event file under --out. NOTES.md explains the workloads,
// the WAL device and which layer metric moves which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"deferstm/internal/bench"
	"deferstm/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*result, error){
	"kv-write":     runKVWrite,
	"kv-read":      runKVRead,
	"dedup":        runDedup,
	"repl-catchup": runReplCatchup,
}

// config sizes one run. fullConfig is the benchmark; the self-tests
// shrink it.
type config struct {
	seed     uint64
	duration time.Duration
	setups   int // set-ups per run; setup_s is their median

	keys       int // kv preload keys
	dedupBytes int
	replWrites int // primary updates before catch-up passes

	tr  *tracer       // nil when untraced
	reg *obs.Registry // nil when untraced
}

func fullConfig(seed uint64, d time.Duration) config {
	return config{
		seed: seed, duration: d, setups: 3,
		keys: 200_000, dedupBytes: 8 << 20, replWrites: 175_000,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: kv-write | kv-read | dedup | repl-catchup")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 20, "measured seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		out     = fs.String("out", ".perfbench", "directory for the trace file of a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := fullConfig(*seed, time.Duration(*seconds)*time.Second)
	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": bench.GitCommit(),
		"device": fmt.Sprintf("memfd, real fsync + %v, group commit, %d lanes", fsyncCost, shards),
	}
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(stdout, string(envLine))

	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(wl, cfg, filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", *name, *seed)))
	} else {
		res, err = wl(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	line, err := res.json(names)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// tracedRun measures wl traced and then untraced, each for half the
// run, and reports the traced run's per-layer metrics plus the ratio of
// the two throughputs. The traced half runs first, so its set-up starts
// from a clean process (kv.heap_bytes_per_key is a heap difference).
func tracedRun(wl func(config) (*result, error), cfg config, path string) (*result, error) {
	cfg.duration /= 2
	cfg.setups = 1
	traced := cfg
	traced.tr, traced.reg = newTracer(), obs.NewRegistry()
	res, err := wl(traced)
	if err != nil {
		return nil, err
	}
	base, err := wl(cfg)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead", res.throughput/base.throughput)
	res.attempted += base.attempted
	res.failed += base.failed
	res.problems = append(res.problems, base.problems...)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := traced.tr.write(path); err != nil {
		return nil, err
	}
	return res, nil
}

// metric units; endToEnd and perLayer are the names BENCHMARK.json lists.
var units = map[string]string{}

var endToEnd = declare([][2]string{
	{"setup_s", "s"}, {"heap_mib", "MiB"}, {"ops_per_s", "ops/s"},
	{"p50_ms", "ms"}, {"p90_ms", "ms"}, {"scan_p50_ms", "ms"},
	{"mib_per_s", "MiB/s"}, {"records_per_s", "rec/s"},
})

var perLayer = declare([][2]string{
	{"server.ack_p50_ms", "ms"}, {"server.ack_p99_ms", "ms"},
	{"server.client_p99_ms", "ms"}, {"server.request_errors", "count"},
	{"stm.tx_per_op", "tx/op"}, {"stm.conflicts_per_op", "aborts/op"},
	{"stm.commit_ratio", "ratio"}, {"stm.retry_parks_per_op", "parks/op"},
	{"stm.quiesce_ms_per_op", "ms/op"}, {"stm.tx_p50_us", "us"},
	{"stm.snapshot_reads_per_scan", "reads/scan"},
	{"stm.snapshot_truncations_per_scan", "nodes/scan"},
	{"stm.snapshot_fallbacks", "count"},
	{"core.deferred_ops_per_op", "defers/op"},
	{"core.defer_lock_hold_p50_ms", "ms"}, {"core.defer_exec_p50_ms", "ms"},
	{"wal.records_per_flush", "rec/flush"}, {"wal.fsyncs_per_record", "fsyncs/rec"},
	{"wal.write_calls_per_flush", "writes/flush"}, {"wal.bytes_per_user_byte", "ratio"},
	{"wal.fsync_ms", "ms"}, {"wal.append_durable_p50_ms", "ms"},
	{"wal.batch_wait_p50_ms", "ms"}, {"wal.read_mib_per_s", "MiB/s"},
	{"kv.preload_s", "s"}, {"kv.preload_aborts", "count"}, {"kv.heap_bytes_per_key", "B/key"},
	{"repl.ready_ms", "ms"}, {"repl.records_per_batch", "rec/batch"},
	{"repl.bytes_per_record", "B/rec"}, {"repl.tx_per_record", "tx/rec"},
	{"repl.reconnects", "count"},
	{"dedup.quiesce_ms", "ms/pass"}, {"dedup.conflicts_per_packet", "aborts/pkt"},
	{"dedup.deferred_ops_per_packet", "defers/pkt"}, {"dedup.serial_runs", "count"},
	{"dedup.dedup_factor", "ratio"},
	{"chunker.mib_per_s", "MiB/s"}, {"compress.mib_per_s", "MiB/s"},
	{"simio.writes_per_packet", "writes/pkt"}, {"simio.fsyncs_per_packet", "fsyncs/pkt"},
	{"bench.trace_overhead", "ratio"},
})

func declare(pairs [][2]string) []string {
	names := make([]string, len(pairs))
	for i, p := range pairs {
		names[i] = p[0]
		units[p[0]] = p[1]
	}
	return names
}

// result is one run's outcome. A metric a workload does not produce
// reads 0: the layer did no work in it.
type result struct {
	attempted, failed uint64
	problems          []string
	metrics           map[string]float64
	// throughput is the workload's headline rate, the base of
	// bench.trace_overhead.
	throughput float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = v
}

// fail records a failed check that invalidates n operations.
func (r *result) fail(n uint64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) json(names []string) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	for _, n := range names {
		ms[n] = metric{Value: r.metrics[n], Unit: units[n]}
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1 // the contract counts a run as at least one attempt
	}
	return json.Marshal(map[string]any{
		"correct":   len(r.problems) == 0 && r.failed == 0,
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
}

// quantile returns the q-quantile of xs (nearest rank; 0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle forces a collection so the next timed phase starts from a
// clean heap, and returns the live heap.
func settle() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// histMs returns a registry histogram's q-quantile in milliseconds.
func histMs(reg *obs.Registry, name string, q string) float64 {
	h, ok := reg.Snapshot()[name].(map[string]any)
	if !ok {
		return 0
	}
	v, _ := h[q].(float64)
	return v / 1e6
}
