package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"edtrace"
	"edtrace/internal/analysis"
	"edtrace/internal/anonymize"
	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
	"edtrace/internal/netsim"
	"edtrace/internal/pcap"
	"edtrace/internal/server"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// The traced run prints the per-layer ledger. Every workload's traced
// run reports every layer: the capture layers are timed over the
// workload's own frames (the set-up pcap for replay and sim, the
// daemon's self-capture for serve), the serving layers over an
// in-process daemon driven at the base rate. Spans are taken around
// batches of calls into each module's public functions, from this
// package only; the program itself is not instrumented.

// unattributedTolerancePct is how far the replay ledger's layers may
// fall short of (or exceed) the end-to-end cost per frame before the
// traced run fails its check.
const unattributedTolerancePct = 20

// sweepRates are the offered rates of the traced max-rate sweep, in
// ascending order; each runs for sweepSeconds.
var sweepRates = []float64{200, 400, 800, baseRate, 2 * baseRate, peakRate, 2 * peakRate}

const sweepSeconds = 1.5

// sessionBatch is the Session's default batch size: a live source's
// last frames wait in a partial batch of up to this many minus one.
const sessionBatch = 128

// emitClock accumulates the time a Source spends inside emit — blocked
// on a full queue when the consumer is the bottleneck — and the time
// its Frames call takes.
type emitClock struct {
	emit, total time.Duration
	frames      int64
}

func (c *emitClock) wrap(ctx context.Context, frames func(context.Context, edtrace.EmitFunc) error, emit edtrace.EmitFunc) error {
	start := time.Now()
	err := frames(ctx, func(t simtime.Time, f []byte) error {
		t0 := time.Now()
		err := emit(t, f)
		c.emit += time.Since(t0)
		c.frames++
		return err
	})
	c.total = time.Since(start)
	return err
}

// The wrappers embed the concrete sources so the Session still sees
// their pipeline defaults, capture reports and frame recycling.
type (
	clockedPcap struct {
		*edtrace.PcapSource
		emitClock
	}
	clockedSim struct {
		*edtrace.SimSource
		emitClock
	}
	clockedLive struct {
		*edtrace.LiveSource
		emitClock
	}
)

func (s *clockedPcap) Frames(ctx context.Context, emit edtrace.EmitFunc) error {
	return s.wrap(ctx, s.PcapSource.Frames, emit)
}

func (s *clockedSim) Frames(ctx context.Context, emit edtrace.EmitFunc) error {
	return s.wrap(ctx, s.SimSource.Frames, emit)
}

func (s *clockedLive) Frames(ctx context.Context, emit edtrace.EmitFunc) error {
	return s.wrap(ctx, s.LiveSource.Frames, emit)
}

// tracedE2E is one end-to-end capture run with its Source's emit
// clocked.
type tracedE2E struct {
	Frames     int64   `json:"frames"`
	WallNs     float64 `json:"wall_ns"`
	EmitNs     float64 `json:"emit_ns"`
	SourceNs   float64 `json:"source_ns"`
	KernelDrop float64 `json:"kernel_drop_ratio"`
}

type tracedE2EJob struct {
	captureJob
	Source string `json:"source"` // "pcap" or "sim"
}

// tracedE2EChild runs the workload's timed Session with the emit clock.
func tracedE2EChild(in []byte) (any, error) {
	var job tracedE2EJob
	if err := json.Unmarshal(in, &job); err != nil {
		return nil, err
	}
	var src edtrace.Source
	var clock *emitClock
	opts := []edtrace.Option{edtrace.WithFigures()}
	switch job.Source {
	case "pcap":
		s := &clockedPcap{PcapSource: edtrace.NewPcapSource(job.pcapPath())}
		src, clock = s, &s.emitClock
		opts = append(opts, edtrace.WithDataset(job.datasetPath(), true), edtrace.WithServerIP(job.serverIP()))
	case "sim":
		s := &clockedSim{SimSource: edtrace.NewSimSource(simConfig(job.Seed))}
		src, clock = s, &s.emitClock
		opts = append(opts, edtrace.WithDataset(job.datasetPath(), false))
	default:
		return nil, fmt.Errorf("unknown source %q", job.Source)
	}
	if err := os.RemoveAll(job.datasetPath()); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := edtrace.NewSession(src, opts...).Run(context.Background())
	if err != nil {
		return nil, err
	}
	out := tracedE2E{
		Frames: clock.frames,
		WallNs: float64(time.Since(start)),
		EmitNs: float64(clock.emit), SourceNs: float64(clock.total - clock.emit),
	}
	if n := res.Report.EthernetCaptured + res.Report.EthernetDropped; n > 0 {
		out.KernelDrop = float64(res.Report.EthernetDropped) / float64(n)
	}
	return out, nil
}

// ledgerJob is the input of the serial capture ledger.
type ledgerJob struct {
	Pcap      string `json:"pcap"`
	ServerIP  uint32 `json:"server_ip"`
	Dir       string `json:"dir"`
	SpansPath string `json:"spans_path"`
	// Gzip selects the dataset format the workload's Session writes.
	Gzip bool `json:"gzip"`
}

// layerCost is one layer's measured cost over a traced pass.
type layerCost struct {
	SelfNs float64 `json:"self_ns"`
	Ops    int64   `json:"ops"`
}

func (l layerCost) perOp() float64 {
	if l.Ops == 0 {
		return 0
	}
	return l.SelfNs / float64(l.Ops)
}

// captureLedger is what the serial capture pass measured.
type captureLedger struct {
	Frames    int64                `json:"frames"`
	Layers    map[string]layerCost `json:"layers"`
	Undecoded float64              `json:"undecoded_ratio"`
	Pages     int                  `json:"client_pages"`
	MaxBucket int                  `json:"file_max_bucket"`
}

// datagram is one reassembled UDP payload, stored in the pass's arena.
type datagram struct {
	t        simtime.Time
	src, dst uint32
	off, n   int
}

// ledgerCapture passes the capture through each stage in turn on one
// goroutine, with the calls FrameDecoder and Pipeline make: pcap read,
// Ethernet/IPv4/reassembly/UDP parse, ed2k decode, EmitDecoded into a
// DiscardSink, then the records through XML encoding, the dataset
// writer (gzip unless the workload writes plain), the dataset reader
// and the figure collector. Anonymisers are
// fresh, so first-touch page costs count. This serial pass is also the
// single-threaded baseline of the capture path.
func ledgerCapture(in []byte) (any, error) {
	var job ledgerJob
	if err := json.Unmarshal(in, &job); err != nil {
		return nil, err
	}
	tr := NewTracer("capture")
	tr.Begin("ledger")

	tr.Begin("pcap.read")
	f, err := os.Open(job.Pcap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := pcap.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, err
	}
	var frames []pcap.Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, rec)
	}
	tr.End(int64(len(frames)))

	tr.Begin("netsim.parse")
	reasm := netsim.NewReassembler()
	arena := make([]byte, 0, 64<<20)
	var dgs []datagram
	for _, fr := range frames {
		ip, err := netsim.DecodeEthernet(fr.Data)
		if err != nil {
			continue
		}
		hdr, payload, err := netsim.DecodeIPv4(ip)
		if err != nil || hdr.Protocol != netsim.ProtoUDP {
			continue
		}
		t := fr.Time()
		dg, ok := reasm.Push(t, hdr, payload)
		if !ok {
			continue
		}
		_, body, err := netsim.DecodeUDP(hdr.Src, hdr.Dst, dg)
		if err != nil {
			continue
		}
		dgs = append(dgs, datagram{t: t, src: hdr.Src, dst: hdr.Dst, off: len(arena), n: len(body)})
		arena = append(arena, body...)
	}
	tr.End(int64(len(frames)))

	tr.Begin("ed2k.decode")
	decoded := make([]core.Decoded, 0, len(dgs))
	times := make([]simtime.Time, 0, len(dgs))
	for _, d := range dgs {
		m, err := ed2k.DecodePooled(arena[d.off : d.off+d.n])
		if err != nil {
			continue
		}
		decoded = append(decoded, core.Decoded{Src: d.src, Dst: d.dst, Msg: m})
		times = append(times, d.t)
	}
	tr.End(int64(len(dgs)))

	clientIDs, fileIDs := rawIDs(decoded, job.ServerIP)
	tr.Begin("anonymize.client")
	ca := anonymize.NewClientDirect()
	for _, id := range clientIDs {
		ca.Anonymize(id)
	}
	tr.End(int64(len(clientIDs)))
	tr.Begin("anonymize.file")
	fa := anonymize.NewFileBuckets(anonymize.DefaultBytePair())
	for _, id := range fileIDs {
		fa.Anonymize(id)
	}
	tr.End(int64(len(fileIDs)))

	pipe := core.NewPipeline(job.ServerIP, [2]int{5, 11}, core.DiscardSink{})
	tr.Begin("core.emit")
	for i, d := range decoded {
		if err := pipe.EmitDecoded(times[i], d); err != nil {
			return nil, err
		}
	}
	tr.End(int64(pipe.Stats().Records))

	recs, err := recordStream(frames, job.ServerIP)
	if err != nil {
		return nil, err
	}

	tr.Begin("xmlenc.encode")
	var buf []byte
	for _, rec := range recs {
		buf = xmlenc.AppendRecord(buf[:0], rec)
	}
	tr.End(int64(len(recs)))

	ds := filepath.Join(job.Dir, "ledger-dataset")
	if err := os.RemoveAll(ds); err != nil {
		return nil, err
	}
	tr.Begin("dataset.write")
	w, err := dataset.NewWriter(ds, dataset.WriterOptions{Compress: job.Gzip})
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	tr.End(int64(len(recs)))

	tr.Begin("dataset.read")
	var read int64
	if err := dataset.ForEach(ds, func(*xmlenc.Record) error { read++; return nil }); err != nil {
		return nil, err
	}
	tr.End(read)

	tr.Begin("analysis.collect")
	c := analysis.NewCollector()
	for _, rec := range recs {
		if err := c.Write(rec); err != nil {
			return nil, err
		}
	}
	tr.End(int64(len(recs)))
	tr.Begin("analysis.finalize")
	c.Finalize()
	tr.End(1)
	tr.End(int64(len(frames)))

	if err := tr.WriteFile(job.SpansPath); err != nil {
		return nil, err
	}
	out := captureLedger{
		Frames: int64(len(frames)), Layers: layerCosts(tr.Spans()),
		Pages: ca.PagesAllocated(),
	}
	_, out.MaxBucket = fa.MaxBucket()
	if dec := int64(len(dgs)); dec > 0 {
		out.Undecoded = float64(dec-int64(len(decoded))) / float64(dec)
	}
	return out, nil
}

// layerCosts folds spans into self time and op counts per layer name.
func layerCosts(spans []Span) map[string]layerCost {
	self := SelfTimes(spans)
	out := map[string]layerCost{}
	for _, s := range spans {
		c := out[s.Name]
		c.SelfNs += float64(self[s.ID])
		c.Ops += s.Ops
		out[s.Name] = c
	}
	return out
}

// rawIDs lists, in message order, the client addresses and fileIDs the
// pipeline anonymises: the non-server endpoint of each message and the
// fileIDs it carries.
func rawIDs(decoded []core.Decoded, serverIP uint32) (clients []uint32, files []ed2k.FileID) {
	for _, d := range decoded {
		if d.Src == serverIP {
			clients = append(clients, d.Dst)
		} else {
			clients = append(clients, d.Src)
		}
		switch m := d.Msg.(type) {
		case *ed2k.OfferFiles:
			for _, e := range m.Files {
				files = append(files, e.ID)
			}
		case *ed2k.SearchRes:
			for _, e := range m.Results {
				files = append(files, e.ID)
			}
		case *ed2k.GetSources:
			files = append(files, m.Hashes...)
		case *ed2k.FoundSources:
			files = append(files, m.Hash)
		}
	}
	return clients, files
}

// recordSink keeps a deep copy of every record.
type recordSink struct{ recs []*xmlenc.Record }

func (s *recordSink) Write(r *xmlenc.Record) error {
	c := *r
	c.Files = slices.Clone(r.Files)
	c.FileRefs = slices.Clone(r.FileRefs)
	c.Sources = slices.Clone(r.Sources)
	c.Keywords = slices.Clone(r.Keywords)
	s.recs = append(s.recs, &c)
	return nil
}

// recordStream rebuilds the capture's record stream (untimed) for the
// stages after the pipeline.
func recordStream(frames []pcap.Record, serverIP uint32) ([]*xmlenc.Record, error) {
	sink := &recordSink{}
	pipe := core.NewPipeline(serverIP, [2]int{5, 11}, sink)
	for _, fr := range frames {
		if err := pipe.ProcessFrame(fr.Time(), fr.Data); err != nil {
			return nil, err
		}
	}
	return sink.recs, nil
}

// serveLedger is what the in-process serving run measured.
type serveLedger struct {
	Phases       []phaseResult `json:"phases"`
	Sweep        []rateStep    `json:"sweep"`
	MaxRate      float64       `json:"max_rate"`
	MirrorNs     float64       `json:"mirror_ns_per_msg"`
	Mirrored     int64         `json:"mirrored"`
	CaptureDrops uint64        `json:"capture_drops"`
	EmitBlockNs  float64       `json:"emit_block_ns_per_frame"`
	// Index is the plans replayed through a fresh index and the TCP
	// codec, by span name.
	Index     map[string]layerCost `json:"index"`
	Pcap      string               `json:"pcap"`
	ServerKey uint32               `json:"server_key"`
}

// ledgerServe starts the daemon in-process the way cmd/edserverd builds
// it, with a self-capture Session fed by a bench-installed tap that
// times LiveSource.Mirror (which runs before each answer is written).
// It drives the base rate, the peak rate and the max-rate sweep, then
// replays the plans through a fresh index and the TCP codec.
func ledgerServe(in []byte) (any, error) {
	var job serveJob
	if err := json.Unmarshal(in, &job); err != nil {
		return nil, err
	}
	plans, err := loadPlans(job.plansPath())
	if err != nil {
		return nil, err
	}
	d, err := edserverd.Start(edserverd.Config{
		TCPAddr: "127.0.0.1:0", UDPAddr: "off", MetricsAddr: "127.0.0.1:0",
		Name: "edserverd", Desc: "edtrace eDonkey directory server",
		SourceTTL: simtime.Time(2 * time.Hour), ExpiryInterval: 5 * time.Minute, IdleTimeout: 3 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	live := &clockedLive{LiveSource: edtrace.NewLiveSource(0)}
	var mirrorNs, mirrored atomic.Int64
	detach := d.SetTap(func(src, dst uint32, payload []byte) {
		t0 := time.Now()
		live.Mirror(src, dst, payload)
		mirrorNs.Add(int64(time.Since(t0)))
		mirrored.Add(1)
	})
	var processed atomic.Int64
	out := serveLedger{Pcap: filepath.Join(job.Dir, "self-capture.pcap"), ServerKey: d.ServerKey()}
	session := make(chan error, 1)
	var res *edtrace.Result
	go func() {
		var err error
		res, err = edtrace.NewSession(live,
			edtrace.WithServerIP(d.ServerKey()), edtrace.WithFileBytePair(5, 11),
			edtrace.WithDataset(job.datasetPath(), true), edtrace.WithPcapTee(out.Pcap),
			edtrace.WithProgress(func(p edtrace.Progress) { processed.Store(int64(p.Frames)) }),
			edtrace.WithProgressEvery(1),
		).Run(context.Background())
		session <- err
	}()

	gen := &loadGen{addr: d.TCPAddr().String(), streams: job.Streams, plans: plans}
	ctx := context.Background()
	for i, ph := range []phase{
		{Name: "warm", Rate: baseRate, Seconds: 2},
		{Name: "base", Rate: baseRate, Seconds: 4},
		{Name: "peak", Rate: peakRate, Seconds: 3},
	} {
		out.Phases = append(out.Phases, gen.run(ctx, ph, job.Seed*1000+uint64(i)))
	}
	// A frame the capture never processes was dropped, except the last
	// partial batch the Session holds until it fills.
	var dropped int64
	for i, rate := range sweepRates {
		m0 := mirrored.Load()
		pr := gen.run(ctx, phase{Name: "sweep", Rate: rate, Seconds: sweepSeconds}, job.Seed*1000+100+uint64(i))
		drained(&processed)
		step := rateStep{Rate: rate, P99Ms: pr.Latency.P99, LateGrowing: pr.LateGrowing, ErrorRatio: pr.errorRatio()}
		now := max(0, mirrored.Load()-processed.Load()-(sessionBatch-1))
		if m := mirrored.Load() - m0; m > 0 {
			step.LossRatio = float64(now-dropped) / float64(m)
		}
		dropped = now
		out.Phases = append(out.Phases, pr)
		out.Sweep = append(out.Sweep, step)
		if !step.pass() {
			break
		}
	}
	out.MaxRate = maxRate(out.Sweep)

	sctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		return nil, err
	}
	detach()
	live.Close()
	if err := <-session; err != nil {
		return nil, err
	}
	out.CaptureDrops = res.Report.EthernetDropped
	out.Mirrored = mirrored.Load()
	if out.Mirrored > 0 {
		out.MirrorNs = float64(mirrorNs.Load()) / float64(out.Mirrored)
	}
	if live.frames > 0 {
		out.EmitBlockNs = float64(live.emit) / float64(live.frames)
	}
	out.Index, err = replayIndex(plans, job.SpansPath)
	return out, err
}

// drained waits until the capture has stopped advancing.
func drained(processed *atomic.Int64) {
	last := processed.Load()
	for {
		time.Sleep(50 * time.Millisecond)
		now := processed.Load()
		if now == last {
			return
		}
		last = now
	}
}

// replayIndex replays the plans' requests through a fresh index built
// as edserverd builds it and through the TCP codec, one batch span per
// request kind: every offer first, then every search, then every
// GetSources against the full index.
func replayIndex(plans [][]planMsg, spansPath string) (map[string]layerCost, error) {
	type req struct {
		from ed2k.ClientID
		msg  ed2k.Message
	}
	kinds := []uint8{kindOffer, kindSearch, kindGetSources}
	byKind := map[uint8][]req{}
	var frames []byte
	for i, plan := range plans {
		from := ed2k.ClientID(0x7F000000 | uint32(i))
		for _, m := range plan {
			msgs, _, err := ed2k.ParseTCPStream(m.Frame)
			if err != nil || len(msgs) != 1 {
				return nil, fmt.Errorf("re-parsing a plan message: %v", err)
			}
			byKind[m.Kind] = append(byKind[m.Kind], req{from, msgs[0]})
			frames = append(frames, m.Frame...)
		}
	}
	tr := NewTracer("serve")
	tr.Begin("ledger")
	srv := server.NewSharded("edserverd", "", max(16, 4*runtime.GOMAXPROCS(0)))
	for _, k := range kinds {
		tr.Begin("server.handle." + kindNames[k])
		for _, r := range byKind[k] {
			srv.Handle(0, r.from, 4662, r.msg)
		}
		tr.End(int64(len(byKind[k])))
	}
	tr.Begin("ed2k.tcp_codec")
	var n int64
	for _, k := range kinds {
		for _, r := range byKind[k] {
			ed2k.FrameTCP(r.msg)
		}
	}
	sr := ed2k.NewStreamReader(bytes.NewReader(frames))
	for {
		if _, err := sr.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		n++
	}
	tr.End(n)
	tr.End(n)
	return layerCosts(tr.Spans()), tr.WriteFile(spansPath)
}
