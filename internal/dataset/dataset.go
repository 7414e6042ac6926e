// Package dataset stores anonymised capture records on disk the way the
// paper releases its data: a directory of XML chunk files (optionally
// gzip-compressed — §2.5 notes the format "once compressed, does not have
// a prohibitive space cost") plus a JSON manifest with global counters.
//
// Chunks rotate on a record budget so ten-week captures never produce a
// single unwieldy file, and readers stream chunk by chunk with one record
// in memory at a time.
package dataset

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"edtrace/internal/xmlenc"
)

// Manifest describes a stored dataset.
type Manifest struct {
	// Version of the chunk grammar (xmlenc spec).
	Version string `json:"version"`
	// Chunks lists chunk file names in record order.
	Chunks []string `json:"chunks"`
	// Records is the total record count across chunks.
	Records uint64 `json:"records"`
	// DistinctClients and DistinctFiles are the anonymisation counters:
	// clientIDs and fileIDs are dense in [0, N).
	DistinctClients uint32 `json:"distinct_clients"`
	DistinctFiles   uint32 `json:"distinct_files"`
	// Meta carries free-form capture metadata (seed, scale, duration).
	Meta map[string]string `json:"meta,omitempty"`
}

const manifestName = "manifest.json"

// Writer writes a dataset directory.
type Writer struct {
	dir          string
	chunkRecords uint64
	chunkBytes   int
	compress     bool
	workers      int
	meta         map[string]string

	cur     *os.File
	curGzip *gzip.Writer
	enc     *xmlenc.Encoder
	inChunk uint64

	// Parallel mode (workers > 0): chunks assemble in raw and flow
	// through jobs to the worker pool; see parallel.go.
	raw      []byte
	curName  string
	jobs     chan chunkJob
	freeBufs chan []byte
	wg       sync.WaitGroup
	werrMu   sync.Mutex
	werr     error

	closed bool
	man    Manifest
}

// WriterOptions configures a dataset writer.
type WriterOptions struct {
	// ChunkRecords caps records per chunk file (default 1_000_000).
	ChunkRecords uint64
	// Compress gzips chunk files (.xml.gz).
	Compress bool
	// Workers > 0 compresses and writes chunk files on that many
	// background goroutines, keeping gzip off the record pipeline's
	// critical path. Chunks then also rotate on a byte budget
	// (ChunkBytes) so in-flight memory stays bounded. Record order
	// across chunks is unchanged. Write and Close must still be called
	// from a single goroutine.
	Workers int
	// ChunkBytes caps the in-memory chunk size in parallel mode
	// (default 4 MiB of encoded XML); ignored when Workers == 0.
	ChunkBytes int
	// Meta is copied into the manifest and each chunk header.
	Meta map[string]string
}

// NewWriter creates dir (if needed) and returns a writer.
func NewWriter(dir string, opts WriterOptions) (*Writer, error) {
	if opts.ChunkRecords == 0 {
		opts.ChunkRecords = 1_000_000
	}
	if opts.ChunkBytes <= 0 {
		opts.ChunkBytes = defaultChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	w := &Writer{
		dir:          dir,
		chunkRecords: opts.ChunkRecords,
		chunkBytes:   opts.ChunkBytes,
		compress:     opts.Compress,
		workers:      opts.Workers,
		meta:         opts.Meta,
	}
	w.man.Version = "1.0"
	w.man.Meta = opts.Meta
	if w.workers > 0 {
		w.startWorkers()
	}
	return w, nil
}

// nextChunk assigns the next chunk's file name (recorded in manifest
// order) and builds its header metadata.
func (w *Writer) nextChunk() (string, map[string]string) {
	name := fmt.Sprintf("chunk-%05d.xml", len(w.man.Chunks))
	if w.compress {
		name += ".gz"
	}
	meta := map[string]string{"chunk": strconv.Itoa(len(w.man.Chunks))}
	for k, v := range w.meta {
		meta[k] = v
	}
	w.man.Chunks = append(w.man.Chunks, name)
	return name, meta
}

func (w *Writer) openChunk() error {
	name, meta := w.nextChunk()
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	w.cur = f
	var sink io.Writer = f
	if w.compress {
		w.curGzip = gzip.NewWriter(f)
		sink = w.curGzip
	}
	w.enc = xmlenc.NewEncoder(sink)
	if err := w.enc.Begin(meta); err != nil {
		return err
	}
	w.inChunk = 0
	return nil
}

func (w *Writer) closeChunk() error {
	if w.cur == nil {
		return nil
	}
	if err := w.enc.End(); err != nil {
		return err
	}
	if w.curGzip != nil {
		if err := w.curGzip.Close(); err != nil {
			return err
		}
		w.curGzip = nil
	}
	err := w.cur.Close()
	w.cur = nil
	w.enc = nil
	return err
}

// Write appends one record, rotating chunks as needed.
func (w *Writer) Write(rec *xmlenc.Record) error {
	if w.workers > 0 {
		return w.writeParallel(rec)
	}
	if w.cur == nil || w.inChunk >= w.chunkRecords {
		if err := w.closeChunk(); err != nil {
			return err
		}
		if err := w.openChunk(); err != nil {
			return err
		}
	}
	if err := w.enc.Write(rec); err != nil {
		return err
	}
	w.inChunk++
	w.man.Records++
	return nil
}

// SetCounters records the anonymisation totals in the manifest.
func (w *Writer) SetCounters(distinctClients, distinctFiles uint32) {
	w.man.DistinctClients = distinctClients
	w.man.DistinctFiles = distinctFiles
}

// Records reports records written so far.
func (w *Writer) Records() uint64 { return w.man.Records }

// Close finishes the last chunk and writes the manifest. Close is
// idempotent on success; after a chunk-write failure it returns the
// error and leaves no manifest, so a broken dataset is unreadable
// rather than silently truncated.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.workers > 0 {
		if err := w.closeParallel(); err != nil {
			return err
		}
	} else if err := w.closeChunk(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&w.man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(w.dir, manifestName), append(data, '\n'), 0o644)
}

// Open reads a dataset's manifest.
func Open(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dataset: bad manifest: %w", err)
	}
	if m.Version != "1.0" {
		return nil, fmt.Errorf("dataset: unsupported version %q", m.Version)
	}
	sorted := append([]string(nil), m.Chunks...)
	sort.Strings(sorted)
	for i := range sorted {
		if sorted[i] != m.Chunks[i] {
			return nil, fmt.Errorf("dataset: chunk list not in order")
		}
	}
	return &m, nil
}

// ForEach streams every record of the dataset at dir, in order, invoking
// fn. fn returning a non-nil error aborts the scan and is returned.
//
// fn is handed one recycled record: it must not keep the record, or any
// of its slices, past its return, and calls Clone for a copy it needs
// longer (the rule core.RecordSink states for the capture side). The
// record's strings are safe to keep. Compressed chunks are inflated on
// a second goroutine, overlapping decompression with decoding and fn;
// that goroutine has exited by the time ForEach returns.
func ForEach(dir string, fn func(*xmlenc.Record) error) error {
	man, err := Open(dir)
	if err != nil {
		return err
	}
	var (
		rec xmlenc.Record
		in  inflater
		n   uint64
	)
	for _, chunk := range man.Chunks {
		if err := forEachChunk(filepath.Join(dir, chunk), &in, &rec, fn, &n); err != nil {
			return err
		}
	}
	if n != man.Records {
		return fmt.Errorf("dataset: manifest claims %d records, read %d", man.Records, n)
	}
	return nil
}

func forEachChunk(path string, in *inflater, rec *xmlenc.Record, fn func(*xmlenc.Record) error, n *uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	var src io.Reader = f
	if filepath.Ext(path) == ".gz" {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return fmt.Errorf("dataset: %s: %w", path, err)
		}
		in.start(gz)
		defer in.wait()
		src = in
	}
	dec, err := xmlenc.NewDecoder(src)
	if err != nil {
		return fmt.Errorf("dataset: %s: %w", path, err)
	}
	for {
		err := dec.NextInto(rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: %s: %w", path, err)
		}
		*n++
		if err := fn(rec); err != nil {
			return err
		}
	}
}
