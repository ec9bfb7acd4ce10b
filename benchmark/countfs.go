package main

import (
	"sync/atomic"
	"time"

	"pargeo/internal/wal"
)

// countFS wraps the real file system and counts and times what the WAL
// and the checkpointer do at the VFS seam, so the log's write
// amplification and fsync cost are measured where they happen without
// touching internal/wal. Passed as engine.Durability.FS.
type countFS struct {
	wal.OSFS
	writes     atomic.Int64
	writeBytes atomic.Int64
	writeBusy  atomic.Int64 // ns inside File.Write
	syncs      atomic.Int64
	syncBusy   atomic.Int64 // ns inside File.Sync
}

// fsCounts is a point-in-time copy of the counters; sub gives the work
// done between two copies.
type fsCounts struct {
	writes, writeBytes, syncs int64
	writeBusy, syncBusy       time.Duration
}

func (c *countFS) counts() fsCounts {
	return fsCounts{
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(),
		syncs: c.syncs.Load(), writeBusy: time.Duration(c.writeBusy.Load()), syncBusy: time.Duration(c.syncBusy.Load()),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		writes: a.writes - b.writes, writeBytes: a.writeBytes - b.writeBytes,
		syncs: a.syncs - b.syncs, writeBusy: a.writeBusy - b.writeBusy, syncBusy: a.syncBusy - b.syncBusy,
	}
}

// Create implements wal.VFS.
func (c *countFS) Create(name string) (wal.File, error) {
	f, err := c.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c}, nil
}

type countFile struct {
	wal.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.writeBusy.Add(int64(time.Since(t)))
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.syncBusy.Add(int64(time.Since(t)))
	f.fs.syncs.Add(1)
	return err
}
