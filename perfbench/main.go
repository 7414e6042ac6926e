// Command perfbench is the repository's benchmark: one command that
// runs a workload, checks the program's outputs and prints every metric
// by name and unit. See README.md in this directory for the workloads,
// the metrics and how the per-layer ledger maps onto them.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload replay|sim|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is the run's provenance. A failed output check
// prints "correct": false and exits with status 3; a run that could not
// be made exits with status 1 and prints no result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Work is the directory the run writes its inputs and outputs under;
	// it is removed when the run ends. Traces keeps the traced run's
	// span files.
	Work, Traces string
}

// report collects a run's metrics, its output-check failures and the
// provenance details printed with the result.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
	details   map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func init() {
	children["capture-setup"] = captureSetup
	children["replay-timed"] = timedReplay
	children["sim-timed"] = timedSim
	children["serve-setup"] = serveSetup
	children["serve-drive"] = serveDrive
	children["readback"] = readbackChild
	children["ledger-capture"] = ledgerCapture
	children["ledger-serve"] = ledgerServe
	children["traced-e2e"] = tracedE2EChild
}

func main() {
	if role := os.Getenv(childEnv); role != "" {
		if err := runChildRole(role); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", role, err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "workload: replay, sim or serve")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer ledger instead")
		work     = flag.String("work", ".bench_build/work", "scratch directory for inputs and outputs")
		traces   = flag.String("traces", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Traces: *traces}
	cfg.Work = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", cfg.Workload, cfg.Seed, os.Getpid()))
	// An interrupted run kills its children (CommandContext) before it
	// exits, so no capture or daemon outlives it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, cfg)
	stop()
	if rmErr := os.RemoveAll(cfg.Work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	prov := provenance(cfg)
	prov["details"] = rep.details
	if err := printJSON(map[string]any{"provenance": prov}); err != nil {
		os.Exit(1)
	}
	if err := printJSON(result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}); err != nil {
		os.Exit(1)
	}
	if len(rep.problems) > 0 {
		os.Exit(3)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

func run(ctx context.Context, cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()
	var err error
	switch {
	case cfg.Trace:
		err = runLedger(ctx, cfg, rep)
	case cfg.Workload == "replay" || cfg.Workload == "sim":
		err = runCapture(ctx, cfg, rep)
	case cfg.Workload == "serve":
		err = runServe(ctx, cfg, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want replay, sim or serve)", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up's outputs feed the timed phase.
const setupRepeats = 3

// minTimedRuns is the fewest timed runs a capture workload makes, so
// its rates are medians even when one run fills --seconds.
const minTimedRuns = 3

// runCapture measures the replay or sim workload: set-up three times in
// fresh processes, then timed runs until --seconds of timed work are
// done. Rates and sizes are medians over the timed runs, peak RSS their
// mean. Every timed run commits the same frames in the same blocks, so
// the block latency takes each block's median over the runs and reports
// the p95 of those; the rest of that distribution is in the provenance
// only (its median is the inverse of frames_per_s).
func runCapture(ctx context.Context, cfg runConfig, rep *report) error {
	job := captureJob{Dir: cfg.Work, Seed: cfg.Seed, Tee: cfg.Workload == "replay"}
	var setups []float64
	var setup setupResult
	for i := 0; i < setupRepeats; i++ {
		if _, err := runChild(ctx, "capture-setup", job, &setup); err != nil {
			return err
		}
		setups = append(setups, setup.Seconds)
	}
	rep.set("setup_s", "s", median(setups))

	role := cfg.Workload + "-timed"
	var rates, analyze, bytesPer, rss []float64
	var blocks [][]float64
	var spent float64
	for len(rates) < minTimedRuns || spent < cfg.Seconds {
		r, child, err := timedCaptureRun(ctx, role, job)
		if err != nil {
			return err
		}
		rep.attempted++
		if bad := checkCapture(setup.Ref, r); len(bad) > 0 {
			rep.failed++
			rep.problems = append(rep.problems, bad...)
		}
		spent += r.SessionSeconds + r.AnalyzeSeconds
		rates = append(rates, float64(r.Counts.Frames)/r.SessionSeconds)
		analyze = append(analyze, float64(r.AnalyzeRecords)/r.AnalyzeSeconds)
		bytesPer = append(bytesPer, float64(r.DatasetBytes)/float64(r.DatasetRecords))
		rss = append(rss, child.MaxRSSMB)
		blocks = append(blocks, r.BlockMs)
	}
	lat := summarize(columnMedians(blocks))
	rep.set("frames_per_s", "1/s", median(rates))
	rep.set("analyze_records_per_s", "1/s", median(analyze))
	rep.set("dataset_bytes_per_record", "B", median(bytesPer))
	// Peak RSS is bimodal across runs of one input, depending on where
	// the collector's cycles fall against the live heap's peak; the
	// mean moves smoothly with the share of high runs where the median
	// jumps between the two modes.
	rep.set("peak_rss_mb", "MB", mean(rss))
	// p95, not p99: the blocks above the p95 are, on sim, the garbage
	// collector's stalls during heap growth, and they fall on other
	// blocks in every run, so no block's median holds them and the p99
	// of the medians jumps between a heavy block and the bulk (its
	// (Q3 - Q1)/median over invocations was 0.38 on sim).
	rep.set("p95_ms", "ms", lat.P95)
	rep.details["inputs"] = map[string]any{
		"frames": setup.Ref.Frames, "records": setup.Ref.Records,
		"clients": captureClients, "files": captureFiles, "virtual_weeks": captureWeeks,
	}
	rep.details["timed_runs"] = len(rates)
	rep.details["latency"] = map[string]any{
		"unit": fmt.Sprintf("commit time per %d-frame block, each block's median over the timed runs", blockFrames),
		"ms":   lat,
		// Every block of every run pooled: a single run's hiccups land in
		// its tail.
		"pooled_ms": summarize(slices.Concat(blocks...)),
	}
	rep.details["runs"] = map[string][]float64{
		"setup_s": setups, "frames_per_s": rates, "analyze_records_per_s": analyze, "peak_rss_mb": rss,
	}
	return nil
}

// timedCaptureRun is one timed run: the capture in a fresh process (so
// its peak RSS is the capture's alone), then the read-back in another,
// as edsim and edanalyze -in would run.
func timedCaptureRun(ctx context.Context, role string, job captureJob) (*timedResult, childRun, error) {
	var r timedResult
	child, err := runChild(ctx, role, job, &r)
	if err != nil {
		return nil, child, err
	}
	if _, err := runChild(ctx, "readback", readbackJob{Dataset: job.datasetPath()}, &r.readback); err != nil {
		return nil, child, err
	}
	return &r, child, nil
}
