package kv

import (
	"fmt"
	"sync/atomic"
	"testing"

	"deferstm/internal/simio"
	"deferstm/internal/stm"
	"deferstm/internal/wal"
)

// The crash-recovery property: crash the store at an injected point
// (mid-write torn record, just before an fsync, just after one),
// reconstruct the disk from the crash image with a seeded torn-tail
// model, recover — and the recovered store must be exactly the store
// produced by replaying a PREFIX of the committed updates (LSN order =
// serialization order), a prefix that includes every update whose
// durability was acknowledged before the crash instant.
//
// The workload is sequential and deterministic: the only nondeterminism
// is the seeded reconstruction, so every failure reproduces exactly.

type committed struct {
	lsn uint64
	ops []Op
}

func applyPrefix(log []committed, upTo uint64) map[string]string {
	state := map[string]string{}
	for _, c := range log {
		if c.lsn > upTo {
			break
		}
		for _, op := range c.ops {
			if op.Put {
				state[op.Key] = op.Value
			} else {
				delete(state, op.Key)
			}
		}
	}
	return state
}

func crashScenario(t *testing.T, mode Mode, point simio.CrashPoint, n uint64, seed uint64) (fired bool, torn int) {
	t.Helper()
	opts := Options{Mode: mode, WAL: wal.Options{SegmentBytes: 256}}
	fs := simio.NewFS(simio.Latency{})
	s, _, err := Open(stm.NewDefault(), wal.NewSimBackend(fs), opts)
	if err != nil {
		t.Fatal(err)
	}

	// Watermark at the crash instant: everything at or below it was
	// acknowledged durable before the crash, so it must survive recovery.
	var acked atomic.Uint64
	fs.SetCrashPlan(simio.CrashPlan{Point: point, N: n, OnCrash: func() {
		acked.Store(s.Logs()[0].DurableWatermark())
	}})

	const updates = 40
	var history []committed
	for i := 0; i < updates; i++ {
		var ops []Op
		lsn, err := s.Update(func(tx *stm.Tx, b *Batch) error {
			ops = nil
			k := fmt.Sprintf("k%d", i%7)
			if i%5 == 4 {
				b.Delete(k)
				ops = append(ops, Op{Key: k})
			} else {
				v := fmt.Sprintf("v%d", i)
				b.Put(k, v)
				ops = append(ops, Op{Put: true, Key: k, Value: v})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		history = append(history, committed{lsn: lsn, ops: ops})
		s.WaitDurable(lsn)
		if i == 24 {
			if _, err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	img := fs.CrashImage()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if img == nil {
		return false, 0 // plan never fired (N beyond the run's I/O count)
	}

	// Reconstruct the disk as a crash at that instant would have left it
	// and recover.
	fs2 := simio.FSFromImage(img, simio.Latency{}, seed)
	s2, info, err := Open(stm.NewDefault(), wal.NewSimBackend(fs2), opts)
	if err != nil {
		t.Fatalf("%v N=%d seed=%d: recovery failed: %v", point, n, seed, err)
	}
	if info.LastLSN > updates {
		t.Fatalf("%v N=%d seed=%d: recovered LSN %d beyond %d commits", point, n, seed, info.LastLSN, updates)
	}
	if info.LastLSN < acked.Load() {
		t.Fatalf("%v N=%d seed=%d: lost acked-durable updates: recovered to %d, acked %d",
			point, n, seed, info.LastLSN, acked.Load())
	}
	want := applyPrefix(history, info.LastLSN)
	got := map[string]string{}
	if err := s2.View(func(tx *stm.Tx) error {
		clear(got)
		s2.Range(tx, func(k, v string) bool {
			got[k] = v
			return true
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%v N=%d seed=%d: recovered %v, want prefix-%d state %v", point, n, seed, got, info.LastLSN, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%v N=%d seed=%d: key %q = %q, want %q (prefix %d)", point, n, seed, k, got[k], v, info.LastLSN)
		}
	}

	// The recovered store must be writable: the next LSN continues the
	// prefix.
	lsn, err := s2.Update(func(tx *stm.Tx, b *Batch) error {
		b.Put("post-crash", "ok")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != info.LastLSN+1 {
		t.Fatalf("%v N=%d seed=%d: post-recovery LSN %d, want %d", point, n, seed, lsn, info.LastLSN+1)
	}
	s2.WaitDurable(lsn)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	return true, info.TornBytes
}

func TestCrashRecoveryPrefixConsistent(t *testing.T) {
	points := []simio.CrashPoint{simio.CrashMidWrite, simio.CrashPreFsync, simio.CrashPostFsync}
	fired, tornRuns := 0, 0
	for _, point := range points {
		for _, n := range []uint64{1, 3, 7, 12, 26} {
			for seed := uint64(1); seed <= 3; seed++ {
				ok, torn := crashScenario(t, ModeGroup, point, n, seed)
				if ok {
					fired++
					if torn > 0 {
						tornRuns++
					}
				}
			}
		}
	}
	if fired < 20 {
		t.Fatalf("only %d crash scenarios actually fired", fired)
	}
	if tornRuns == 0 {
		t.Fatal("no scenario recovered from a torn tail — the test is vacuous")
	}
	t.Logf("%d crash scenarios fired, %d with torn tails", fired, tornRuns)
}

// TestCrashRecoverySyncMode: the irrevocable fsync-per-commit baseline
// obeys the same prefix property — and, stronger, every completed Update
// survives (it was acked before returning).
func TestCrashRecoverySyncMode(t *testing.T) {
	for _, point := range []simio.CrashPoint{simio.CrashMidWrite, simio.CrashPreFsync, simio.CrashPostFsync} {
		for _, n := range []uint64{1, 5, 17} {
			for seed := uint64(1); seed <= 2; seed++ {
				crashScenario(t, ModeSync, point, n, seed)
			}
		}
	}
}
