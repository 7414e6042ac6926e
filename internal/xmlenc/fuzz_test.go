package xmlenc

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// FuzzDecoder differentially tests the two decoding paths: a reader that
// recycles one Record through NextInto must see exactly the records, and
// the error class, that Next returns fresh — no state may leak from one
// record into the next. Every record that decodes must also survive a
// trip through AppendRecord unchanged, up to the format's millisecond
// timestamps.
func FuzzDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		fresh, err := NewDecoder(bytes.NewReader(doc))
		if err != nil {
			if !errors.Is(err, ErrSyntax) {
				t.Fatalf("header error outside ErrSyntax: %v", err)
			}
			return
		}
		reuse, err := NewDecoder(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("second decoder of the same header failed: %v", err)
		}
		var rec Record
		for i := 0; ; i++ {
			want, err1 := fresh.Next()
			err2 := reuse.NextInto(&rec)
			if (err1 == nil) != (err2 == nil) || (err1 == io.EOF) != (err2 == io.EOF) ||
				errors.Is(err1, ErrSyntax) != errors.Is(err2, ErrSyntax) {
				t.Fatalf("record %d: paths split: Next err=%v, NextInto err=%v", i, err1, err2)
			}
			if err1 != nil {
				return
			}
			if !sameRecord(want, &rec) {
				t.Fatalf("record %d differs:\nNext     %+v\nNextInto %+v", i, want, &rec)
			}
			checkReencode(t, want)
		}
	})
}

// checkReencode encodes r alone and decodes it again.
func checkReencode(t *testing.T, r *Record) {
	t.Helper()
	line := AppendRecord(nil, r)
	dec, err := NewDecoder(bytes.NewReader(AppendFooter(append(AppendHeader(nil, nil), line...))))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Next()
	if err != nil {
		t.Fatalf("%+v encodes to %q, which does not decode: %v", r, line, err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("%q decodes to more than one record: %v", line, err)
	}
	if again := AppendRecord(nil, got); !bytes.Equal(again, line) {
		t.Fatalf("re-encoding is unstable:\n%q\n%q", line, again)
	}
	// T compares through the encoding above, which keeps milliseconds.
	a, b := *r, *got
	a.T, b.T = 0, 0
	if !sameRecord(&a, &b) {
		t.Fatalf("round trip changed the record:\nin  %+v\nout %+v", r, got)
	}
}

// sameRecord compares records field by field, counting an empty slice
// equal to a nil one (a recycled record keeps empty slices).
func sameRecord(a, b *Record) bool {
	norm := func(r Record) Record {
		if math.IsNaN(r.T) {
			r.T = 0
		}
		if len(r.Files) == 0 {
			r.Files = nil
		}
		if len(r.FileRefs) == 0 {
			r.FileRefs = nil
		}
		if len(r.Sources) == 0 {
			r.Sources = nil
		}
		if len(r.Keywords) == 0 {
			r.Keywords = nil
		}
		return r
	}
	if math.IsNaN(a.T) != math.IsNaN(b.T) {
		return false
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// TestNextIntoRejectsUnencodableOp: the encoder writes op verbatim, so
// the decoder accepts only XML names there.
func TestNextIntoRejectsUnencodableOp(t *testing.T) {
	in := `<edtrace version="1.0">` + "\n" + `<r t="1" c="1" op="a&quot;b" dir="q"/>` + "\n</edtrace>\n"
	dec, err := NewDecoder(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := dec.NextInto(&rec); !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v, want ErrSyntax", err)
	}
}

func BenchmarkDecodeRecordInto(b *testing.B) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Begin(nil)
	for i := 0; i < 1000; i++ {
		enc.Write(sampleRecords()[i%len(sampleRecords())])
	}
	enc.End()
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var rec Record
	for b.Loop() {
		dec, _ := NewDecoder(bytes.NewReader(data))
		for dec.NextInto(&rec) == nil {
		}
	}
}
