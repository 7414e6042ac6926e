package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"edtrace/internal/xmlenc"
)

// recordAt is record i of a dataset that cycles through the record
// shapes, so a recycled record always follows one with other fields.
func recordAt(i int) *xmlenc.Record {
	r := &xmlenc.Record{T: float64(i) / 8, Client: uint32(i % 97)}
	switch i % 4 {
	case 0:
		r.Op, r.Dir = "OfferFiles", xmlenc.DirQuery
		for j := 0; j < i%5+1; j++ {
			r.Files = append(r.Files, xmlenc.FileInfo{ID: uint32(i + j), SizeKB: uint64(700*1024 + i),
				NameHash: fmt.Sprintf("%032x", i*31+j), TypeHash: "0a0b"})
		}
	case 1:
		r.Op, r.Dir = "SearchReq", xmlenc.DirQuery
		r.Keywords = []string{fmt.Sprintf("%032x", i)}
		r.MinKB = uint64(i)
	case 2:
		r.Op, r.Dir = "GetSources", xmlenc.DirQuery
		r.FileRefs = []uint32{uint32(i), uint32(i + 1)}
	default:
		r.Op, r.Dir = "FoundSources", xmlenc.DirAnswer
		r.FileRefs = []uint32{uint32(i)}
		r.Sources = []uint32{uint32(i % 97), 3}
	}
	return r
}

func writeRecords(t testing.TB, dir string, n int, opts WriterOptions, at func(int) *xmlenc.Record) {
	t.Helper()
	w, err := NewWriter(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Write(at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestForEachMultiChunkGzipInOrder reads back a compressed dataset whose
// chunks each span several inflate buffers.
func TestForEachMultiChunkGzipInOrder(t *testing.T) {
	const n = 10000
	dir := t.TempDir()
	writeRecords(t, dir, n, WriterOptions{ChunkRecords: 4000, Compress: true}, recordAt)
	if man, err := Open(dir); err != nil || len(man.Chunks) != 3 {
		t.Fatalf("manifest %+v, err %v", man, err)
	}
	i := 0
	err := ForEach(dir, func(r *xmlenc.Record) error {
		// T is a multiple of 1/8, so the encoding compares every field.
		if want := recordAt(i); !bytes.Equal(xmlenc.AppendRecord(nil, r), xmlenc.AppendRecord(nil, want)) {
			return fmt.Errorf("record %d:\n got %+v\nwant %+v", i, r, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("ForEach visited %d records, want %d", i, n)
	}
}

// settled waits for the goroutine count to fall back to base; a leaked
// inflater goroutine keeps it above for good.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after ForEach returned, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestForEachStopsInflater: the decompressing goroutine has exited when
// ForEach returns, whether the read succeeds, the callback gives up
// while the inflater waits for a free buffer, or a chunk is damaged.
func TestForEachStopsInflater(t *testing.T) {
	// One chunk several times the inflater's buffer budget.
	dir := t.TempDir()
	writeRecords(t, dir, 20000, WriterOptions{Compress: true}, recordAt)
	chunk := filepath.Join(dir, "chunk-00000.xml.gz")
	good, err := os.ReadFile(chunk)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	cases := []struct {
		name   string
		damage func([]byte) []byte
		fn     func(*xmlenc.Record) error
		want   func(error) bool
	}{
		{"complete", nil,
			func(*xmlenc.Record) error { return nil },
			func(err error) bool { return err == nil }},
		{"callback error", nil,
			func(*xmlenc.Record) error { return boom },
			func(err error) bool { return errors.Is(err, boom) }},
		{"truncated chunk", func(b []byte) []byte { return b[:len(b)/2] },
			func(*xmlenc.Record) error { return nil },
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"corrupt chunk", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			for i := len(c) / 2; i < len(c)/2+64; i++ {
				c[i] ^= 0x5a
			}
			return c
		},
			func(*xmlenc.Record) error { return nil },
			func(err error) bool { return err != nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := good
			if tc.damage != nil {
				data = tc.damage(good)
			}
			if err := os.WriteFile(chunk, data, 0o644); err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			if err := ForEach(dir, tc.fn); !tc.want(err) {
				t.Fatalf("ForEach: unexpected error %v", err)
			}
			settled(t, base)
		})
	}
}

// TestForEachAllocs gates the read-back's steady state: records without
// string fields cost at most one allocation each, inflate stage
// included.
func TestForEachAllocs(t *testing.T) {
	const n = 20000
	dir := t.TempDir()
	writeRecords(t, dir, n, WriterOptions{ChunkRecords: 8000, Compress: true}, func(i int) *xmlenc.Record {
		return recordAt(4*(i/2) + 2 + i%2) // GetSources and FoundSources only
	})
	allocs := testing.AllocsPerRun(3, func() {
		if err := ForEach(dir, func(*xmlenc.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if perRecord := allocs / n; perRecord > 1 {
		t.Fatalf("%.3f allocs/record through ForEach, want <= 1", perRecord)
	}
	t.Logf("%.0f allocs per ForEach over %d records", allocs, n)
}
