package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"deferstm/internal/wal"
)

// device is the benchmark's WAL device: a wal.Backend whose files are
// anonymous RAM-backed memfds. Every Write is a real pwrite syscall and
// every Fsync a real fsync syscall; Fsync then sleeps fsyncDelay, a
// fixed per-flush cost that keeps the paper's "fsync ≫ everything else"
// regime without the run-to-run noise of a shared disk. The memfds have
// no path, so the device touches no directory at all.
//
// The device counts and times its Write and Fsync calls; those counts
// are ground truth for the WAL's own BatchStats.
type device struct {
	fsyncDelay time.Duration
	tr         *tracer // nil when untraced

	mu    sync.Mutex
	files map[string]*os.File
	dead  []*os.File // removed files, closed with the device

	writes     atomic.Uint64
	writeBytes atomic.Uint64
	writeNanos atomic.Uint64
	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
}

// deviceStats is one reading of the device counters.
type deviceStats struct {
	Writes, WriteBytes, WriteNanos, Fsyncs, FsyncNanos uint64
}

func (s deviceStats) sub(p deviceStats) deviceStats {
	return deviceStats{
		Writes: s.Writes - p.Writes, WriteBytes: s.WriteBytes - p.WriteBytes,
		WriteNanos: s.WriteNanos - p.WriteNanos, Fsyncs: s.Fsyncs - p.Fsyncs,
		FsyncNanos: s.FsyncNanos - p.FsyncNanos,
	}
}

func newDevice(fsyncDelay time.Duration, tr *tracer) *device {
	return &device{fsyncDelay: fsyncDelay, tr: tr, files: map[string]*os.File{}}
}

func (d *device) stats() deviceStats {
	return deviceStats{
		Writes: d.writes.Load(), WriteBytes: d.writeBytes.Load(), WriteNanos: d.writeNanos.Load(),
		Fsyncs: d.fsyncs.Load(), FsyncNanos: d.fsyncNanos.Load(),
	}
}

// Close releases every memfd. The logs on the device must be closed.
func (d *device) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	files := d.dead
	for _, f := range d.files {
		files = append(files, f)
	}
	var first error
	for _, f := range files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.files, d.dead = map[string]*os.File{}, nil
	return first
}

// file returns name's memfd, creating an empty one when create is set.
func (d *device) file(name string, create bool) (*os.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if f, ok := d.files[name]; ok {
		return f, nil
	}
	if !create {
		return nil, fmt.Errorf("device: open %s: %w", name, os.ErrNotExist)
	}
	f, err := memfd(name)
	if err != nil {
		return nil, err
	}
	d.files[name] = f
	return f, nil
}

func (d *device) Create(name string) (wal.File, error) {
	f, err := d.file(name, true)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(0); err != nil {
		return nil, fmt.Errorf("device: create %s: %w", name, err)
	}
	return &devFile{d: d, f: f}, nil
}

func (d *device) OpenAppend(name string) (wal.File, error) {
	f, err := d.file(name, true)
	if err != nil {
		return nil, err
	}
	h := &devFile{d: d, f: f}
	if h.off, err = h.Size(); err != nil {
		return nil, err
	}
	return h, nil
}

func (d *device) Open(name string) (wal.File, error) {
	f, err := d.file(name, false)
	if err != nil {
		return nil, err
	}
	return &devFile{d: d, f: f}, nil
}

// Remove unlinks name. Its memfd stays open until Close, so a reader
// racing the removal never sees a closed descriptor.
func (d *device) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return fmt.Errorf("device: remove %s: %w", name, os.ErrNotExist)
	}
	delete(d.files, name)
	d.dead = append(d.dead, f)
	return nil
}

func (d *device) Truncate(name string, size int64) error {
	f, err := d.file(name, false)
	if err != nil {
		return err
	}
	return f.Truncate(size)
}

func (d *device) Names() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// devFile is one open handle: its own offset over a shared memfd.
type devFile struct {
	d   *device
	f   *os.File
	off int64
}

func (h *devFile) Read(p []byte) (int, error) {
	n, err := h.f.ReadAt(p, h.off)
	h.off += int64(n)
	if n > 0 && err == io.EOF {
		err = nil
	}
	return n, err
}

func (h *devFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := h.f.WriteAt(p, h.off)
	h.off += int64(n)
	d := h.d
	d.writes.Add(1)
	d.writeBytes.Add(uint64(n))
	d.writeNanos.Add(uint64(time.Since(start)))
	d.tr.span("device", "write", start, 0)
	return n, err
}

// Fsync performs the real fsync, then adds the device's fixed cost.
func (h *devFile) Fsync() error {
	start := time.Now()
	err := h.f.Sync()
	if h.d.fsyncDelay > 0 {
		time.Sleep(h.d.fsyncDelay)
	}
	d := h.d
	d.fsyncs.Add(1)
	d.fsyncNanos.Add(uint64(time.Since(start)))
	d.tr.span("device", "fsync", start, 0)
	return err
}

// Close is a no-op: the memfd belongs to the device, not the handle.
func (h *devFile) Close() error { return nil }

func (h *devFile) Size() (int64, error) {
	st, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// memfdCreateNR is memfd_create's syscall number, which the syscall
// package does not export.
var memfdCreateNR = map[string]uintptr{"amd64": 319, "arm64": 279}

const mfdCloexec = 1

// memfd creates an anonymous RAM-backed file.
func memfd(name string) (*os.File, error) {
	nr, ok := memfdCreateNR[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("device: memfd_create: unsupported GOARCH %s", runtime.GOARCH)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return nil, err
	}
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(p)), mfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("device: memfd_create %s: %w", name, errno)
	}
	return os.NewFile(fd, name), nil
}
