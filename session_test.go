package edtrace

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"edtrace/internal/dataset"
	"edtrace/internal/ed2k"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

type recSink struct{ recs []*xmlenc.Record }

func (m *recSink) Write(r *xmlenc.Record) error {
	m.recs = append(m.recs, r.Clone()) // records are only valid during Write
	return nil
}

// TestSessionSimPcapParity is the capture-now-decode-later equivalence
// at the Session level: the same seed must produce identical anonymised
// record streams via SimSource directly and via a pcap tee replayed
// through a PcapSource.
func TestSessionSimPcapParity(t *testing.T) {
	sim := tinySim()
	path := filepath.Join(t.TempDir(), "capture.pcap")

	live := &recSink{}
	liveRes, err := NewSession(NewSimSource(sim),
		WithPcapTee(path),
		WithSink(live),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(live.recs) == 0 {
		t.Fatal("sim session produced no records")
	}

	replay := &recSink{}
	replayRes, err := NewSession(NewPcapSource(path),
		WithServerIP(sim.ServerIP),
		WithFileBytePair(sim.FileBytePair[0], sim.FileBytePair[1]),
		WithSink(replay),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(replay.recs) != len(live.recs) {
		t.Fatalf("replay %d records, live %d", len(replay.recs), len(live.recs))
	}
	for i := range live.recs {
		if !reflect.DeepEqual(replay.recs[i], live.recs[i]) {
			t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v",
				i, live.recs[i], replay.recs[i])
		}
	}
	if replayRes.Report.DistinctClients != liveRes.Report.DistinctClients ||
		replayRes.Report.DistinctFiles != liveRes.Report.DistinctFiles {
		t.Fatal("anonymisation diverged between sim and pcap replay")
	}
	lp, rp := liveRes.Report.Pipeline, replayRes.Report.Pipeline
	if lp != rp {
		t.Fatalf("pipeline stats diverged:\nlive   %+v\nreplay %+v", lp, rp)
	}
	// The tee records post-kernel-buffer frames, so the replay sees
	// exactly what the sim pipeline processed.
	if replayRes.Report.EthernetCaptured != lp.Frames {
		t.Fatalf("replay frames %d != processed %d",
			replayRes.Report.EthernetCaptured, lp.Frames)
	}
}

// TestSessionCancellation proves Session.Run(ctx) stops promptly on
// cancellation and still closes the dataset into a valid partial
// capture.
func TestSessionCancellation(t *testing.T) {
	sim := tinySim()
	sim.Workload.NumClients = 2000
	sim.Workload.NumFiles = 20000
	sim.Traffic.Duration = 10 * simtime.Week // far beyond test patience

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	session := NewSession(NewSimSource(sim),
		WithDataset(dir, false),
		WithProgress(func(Progress) { cancel() }),
		WithProgressEvery(256),
	)
	start := time.Now()
	res, err := session.Run(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (result %v)", err, res)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}

	// The dataset written so far must be complete and spec-conformant.
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatalf("cancelled run left no readable dataset: %v", err)
	}
	if man.Records == 0 {
		t.Fatal("cancelled run wrote no records before stopping")
	}
	rep, err := dataset.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("partial dataset violates the spec:\n%v", rep.Violations)
	}
}

type failingSink struct{ after int }

func (f *failingSink) Write(*xmlenc.Record) error {
	if f.after <= 0 {
		return errors.New("sink exploded")
	}
	f.after--
	return nil
}

// TestSessionClosesDatasetOnSinkError covers the leak the old
// edtrace.Run had: a mid-run failure must still close the dataset writer
// (manifest written, file handle released).
func TestSessionClosesDatasetOnSinkError(t *testing.T) {
	sim := tinySim()
	dir := t.TempDir()
	_, err := NewSession(NewSimSource(sim),
		WithSink(&failingSink{after: 10}),
		WithDataset(dir, true),
	).Run(context.Background())
	if err == nil || err.Error() != "sink exploded" {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatalf("failed run left no readable dataset: %v", err)
	}
	if man.Records == 0 {
		t.Fatal("no records flushed before the failure")
	}
}

// TestLiveSourceSession runs the live mode without sockets: mirrored
// datagrams flow through the same Session pipeline.
func TestLiveSourceSession(t *testing.T) {
	const serverIP, clientIP = uint32(0x0A000001), uint32(0x01020304)
	src := NewLiveSource(0)
	sink := &recSink{}
	session := NewSession(src, WithServerIP(serverIP), WithSink(sink))

	src.Mirror(clientIP, serverIP, ed2k.Encode(&ed2k.StatReq{Challenge: 7}))
	src.Mirror(serverIP, clientIP, ed2k.Encode(&ed2k.StatRes{Challenge: 7, Users: 1, Files: 2}))
	src.Close()

	res, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.recs) != 2 {
		t.Fatalf("records: %d", len(sink.recs))
	}
	if sink.recs[0].Dir != xmlenc.DirQuery || sink.recs[1].Dir != xmlenc.DirAnswer {
		t.Fatalf("directions wrong: %v %v", sink.recs[0].Dir, sink.recs[1].Dir)
	}
	if res.Report.EthernetCaptured != 2 || res.Report.EthernetDropped != 0 {
		t.Fatalf("capture counters: %+v", res.Report)
	}
	if res.Report.Pipeline.DecodedOK != 2 {
		t.Fatalf("pipeline: %+v", res.Report.Pipeline)
	}
}

// TestLiveSourceCountsQueueOverflow: the bounded queue is the live
// mode's kernel buffer — overflow is counted, not blocking.
func TestLiveSourceCountsQueueOverflow(t *testing.T) {
	const serverIP = uint32(0x0A000001)
	src := NewLiveSource(1)
	payload := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	for i := 0; i < 3; i++ {
		src.Mirror(1, serverIP, payload)
	}
	src.Close()
	res, err := NewSession(src, WithServerIP(serverIP)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.EthernetCaptured != 1 || res.Report.EthernetDropped != 2 {
		t.Fatalf("overflow accounting: captured %d dropped %d",
			res.Report.EthernetCaptured, res.Report.EthernetDropped)
	}
	if res.Report.Pipeline.Records != 1 {
		t.Fatalf("records: %d", res.Report.Pipeline.Records)
	}
}

// TestLiveSourceTimestampsNeverStepBack: concurrent Mirror calls can
// queue datagrams out of time order; Frames must still emit
// non-decreasing timestamps, or the self-capture fails dataset.Verify.
func TestLiveSourceTimestampsNeverStepBack(t *testing.T) {
	src := NewLiveSource(8)
	for _, ms := range []simtime.Time{5, 3, 7, 6, 7, 2, 9} {
		src.queue <- frameItem{t: ms * simtime.Millisecond}
	}
	src.Close()
	var got []simtime.Time
	err := src.Frames(context.Background(), func(t simtime.Time, _ []byte) error {
		got = append(got, t)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("emitted %d frames, want 7", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("timestamp %d steps back: %v", i, got)
		}
	}
}

func TestSessionRequiresServerIP(t *testing.T) {
	if _, err := NewSession(NewPcapSource("/nonexistent.pcap")).Run(context.Background()); err == nil {
		t.Fatal("pcap session without server IP accepted")
	}
}

func TestSessionSingleUse(t *testing.T) {
	src := NewLiveSource(0)
	src.Close()
	s := NewSession(src, WithServerIP(1))
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestSessionBadPcapClosesCleanly(t *testing.T) {
	// A producer-side failure (missing file) must surface and still leave
	// a closed, readable dataset.
	dir := t.TempDir()
	_, err := NewSession(NewPcapSource(filepath.Join(t.TempDir(), "missing.pcap")),
		WithServerIP(1),
		WithDataset(dir, false),
	).Run(context.Background())
	if err == nil {
		t.Fatal("missing pcap accepted")
	}
	if _, err := dataset.Open(dir); err != nil {
		t.Fatalf("dataset not closed after producer failure: %v", err)
	}
}
