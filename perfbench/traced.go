package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runLedger is the traced run: every per-layer metric, for the
// workload's inputs, from fresh-process children.
func runLedger(ctx context.Context, cfg runConfig, rep *report) error {
	if cfg.Workload != "replay" && cfg.Workload != "sim" && cfg.Workload != "serve" {
		return fmt.Errorf("unknown workload %q (want replay, sim or serve)", cfg.Workload)
	}
	cj := captureJob{Dir: cfg.Work, Seed: cfg.Seed, Tee: true}
	var setup setupResult
	if _, err := runChild(ctx, "capture-setup", cj, &setup); err != nil {
		return err
	}

	// The serving layers: an in-process daemon at the base and peak
	// rates and the max-rate sweep.
	if err := os.MkdirAll(cfg.Traces, 0o755); err != nil {
		return err
	}
	spans := func(part string) string {
		return filepath.Join(cfg.Traces, fmt.Sprintf("%s-%d-%s.json", cfg.Workload, cfg.Seed, part))
	}
	sj := serveJob{Dir: cfg.Work, Seed: cfg.Seed, Streams: runtime.NumCPU(), SpansPath: spans("serve")}
	var plans map[string]any
	if _, err := runChild(ctx, "serve-setup", sj, &plans); err != nil {
		return err
	}
	var sv serveLedger
	if _, err := runChild(ctx, "ledger-serve", sj, &sv); err != nil {
		return err
	}

	// The world's cost: SimSource.Frames minus the time spent in emit.
	var world tracedE2E
	if _, err := runChild(ctx, "traced-e2e", tracedE2EJob{captureJob: cj, Source: "sim"}, &world); err != nil {
		return err
	}

	// The workload's own frames, end to end untraced and traced, and
	// through the serial ledger.
	source, role := "pcap", "replay-timed"
	switch cfg.Workload {
	case "sim":
		source, role = "sim", "sim-timed"
	case "serve":
		cj.Pcap, cj.ServerIP = sv.Pcap, sv.ServerKey
	}
	var plain timedResult
	if _, err := runChild(ctx, role, cj, &plain); err != nil {
		return err
	}
	traced := world
	if source == "pcap" {
		if _, err := runChild(ctx, "traced-e2e", tracedE2EJob{captureJob: cj, Source: "pcap"}, &traced); err != nil {
			return err
		}
	}
	var cl captureLedger
	if _, err := runChild(ctx, "ledger-capture", ledgerJob{
		Pcap: cj.pcapPath(), ServerIP: cj.serverIP(), Dir: cfg.Work, SpansPath: spans("capture"), Gzip: source != "sim",
	}, &cl); err != nil {
		return err
	}

	layer := func(name string) float64 { return cl.Layers[name].perOp() }
	ns := func(name string, v float64) { rep.set(name, "ns", v) }
	ns("pcap.read_ns_per_frame", layer("pcap.read"))
	emitBlock := traced.EmitNs / float64(traced.Frames)
	if cfg.Workload == "serve" {
		emitBlock = sv.EmitBlockNs // the live capture's own source
	}
	ns("session.emit_block_ns_per_frame", emitBlock)
	ns("netsim.parse_ns_per_frame", layer("netsim.parse"))
	ns("ed2k.decode_ns_per_msg", layer("ed2k.decode"))
	rep.set("ed2k.undecoded_ratio", "ratio", cl.Undecoded)
	ns("ed2k.tcp_codec_ns_per_msg", sv.Index["ed2k.tcp_codec"].perOp())
	ns("core.emit_ns_per_record", layer("core.emit"))
	ns("anonymize.client_ns_per_id", layer("anonymize.client"))
	rep.set("anonymize.client_pages", "count", float64(cl.Pages))
	ns("anonymize.file_ns_per_id", layer("anonymize.file"))
	rep.set("anonymize.file_max_bucket", "count", float64(cl.MaxBucket))
	ns("xmlenc.encode_ns_per_record", layer("xmlenc.encode"))
	ns("dataset.write_ns_per_record", layer("dataset.write"))
	ns("dataset.read_ns_per_record", layer("dataset.read"))
	ns("analysis.collect_ns_per_record", layer("analysis.collect"))
	rep.set("analysis.finalize_ms", "ms", cl.Layers["analysis.finalize"].SelfNs/1e6)
	ns("sim.world_ns_per_frame", world.SourceNs/float64(world.Frames))
	rep.set("sim.kernel_drop_ratio", "ratio", world.KernelDrop)
	for _, k := range []string{"offer", "search", "getsources"} {
		ns("server.handle_ns."+k, sv.Index["server.handle."+k].perOp())
	}
	ns("live.mirror_ns_per_msg", sv.MirrorNs)
	rep.set("live.capture_drops", "count", float64(sv.CaptureDrops))

	base, peak := sv.Phases[1], sv.Phases[2]
	ms := func(name string, v float64) { rep.set(name, "ms", v) }
	ms("load.lateness_p99_ms", base.Lateness.P99)
	for _, k := range []string{"login", "offer", "search", "fence"} {
		ms("load."+k+"_p99_ms", base.PerKind[k].P99)
	}
	ms("load.p99_ms_peak", peak.Latency.P99)
	rep.set("load.max_rate_msgs_s", "1/s", sv.MaxRate)
	var attempted, failed int64
	for _, p := range sv.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	rep.set("load.error_ratio", "ratio", float64(failed)/float64(attempted))
	rep.set("load.capture_loss_ratio", "ratio", float64(sv.CaptureDrops)/float64(sv.Mirrored))

	// The ledger adds up when the serial layer costs on the path's
	// bottleneck side explain the end-to-end cost per frame. The Session
	// overlaps its source with its consumer on two cores, so the slower
	// side sets the pace: the consumer for a pcap, the world for sim.
	e2e := plain.SessionSeconds * 1e9 / float64(plain.Counts.Frames)
	consumer := 0.0
	for _, name := range []string{"netsim.parse", "ed2k.decode", "core.emit", "dataset.write", "analysis.collect"} {
		consumer += cl.Layers[name].SelfNs
	}
	consumer /= float64(cl.Frames)
	producer := layer("pcap.read")
	if source == "sim" {
		producer = world.SourceNs / float64(world.Frames)
	}
	unattributed := 100 * (1 - max(consumer, producer)/e2e)
	rep.set("trace.unattributed_pct", "%", unattributed)
	rep.set("trace.overhead_pct", "%", 100*(traced.WallNs/float64(traced.Frames)/e2e-1))

	rep.attempted = attempted + 1
	rep.failed = failed
	if failed > 0 {
		rep.fail("serving: %d of %d requests failed", failed, attempted)
	}
	if cfg.Workload == "replay" && (unattributed > unattributedTolerancePct || unattributed < -unattributedTolerancePct) {
		rep.fail("replay ledger leaves %.1f%% of the end-to-end cost per frame unattributed (tolerance ±%d%%)", unattributed, unattributedTolerancePct)
	}
	rep.details["spans"] = []string{spans("capture"), spans("serve")}
	rep.details["ledger"] = map[string]any{
		"capture": cl, "serve": sv, "world": world, "traced_e2e": traced,
		"e2e_ns_per_frame": e2e, "consumer_ns_per_frame": consumer, "producer_ns_per_frame": producer,
	}
	return nil
}
