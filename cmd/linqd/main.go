// Command linqd is the LinQ job-queue execution daemon: an HTTP service
// that accepts quantum circuits (OpenQASM 2.0 source or named Table II
// workloads), queues them against the TILT, QCCD, and IdealTI backends on
// bounded per-backend worker pools, and serves results, job lifecycle, and
// Prometheus metrics. Duplicate circuits in flight are deduplicated by
// content fingerprint, so a thundering herd of identical submissions costs
// one compile.
//
// With -journal-dir the daemon keeps a write-ahead journal of every job:
// submissions are fsynced to disk before the 202 is sent, and a restart
// (even after kill -9) replays the journal — queued jobs re-queue,
// in-flight jobs re-run, finished results survive byte for byte. With
// -tenants the daemon is multi-tenant: API-key auth on the job routes,
// per-tenant quotas and rate limits (429 + Retry-After), weighted-fair
// scheduling, and per-tenant metric labels.
//
// The daemon is observable end to end: every HTTP request and job carries
// a trace (W3C traceparent in, stitched spans out via /v1/traces/{id}),
// job lifecycle transitions stream live over /v1/events (SSE), and
// /v1/backends reports per-pool load samples. -log-format json switches
// the structured request/lifecycle log (stderr) to JSON lines carrying
// trace, job, and tenant IDs.
//
// Usage:
//
//	linqd                              # serve on 127.0.0.1:8080
//	linqd -addr 127.0.0.1:0 -addr-file /tmp/linqd.addr
//	linqd -head 32 -workers 4 -cache 256 -shots 2000
//	linqd -journal-dir /var/lib/linqd -tenants tenants.json
//
// Endpoints:
//
//	POST   /v1/jobs             submit {"qasm"|"workload"|"circuit", "backend", "priority", "ttl_ms"}
//	GET    /v1/jobs/{id}        poll lifecycle state
//	GET    /v1/jobs/{id}/result fetch the terminal outcome (409 until terminal;
//	                            ?wait=5s blocks daemon-side until terminal or timeout)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/traces/{id}      stitched trace (all spans) for a job
//	GET    /v1/events           live job-transition stream (Server-Sent Events)
//	GET    /v1/backends         pools served here + live load samples + schemes
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness + version + lifecycle counters
//
// SIGINT/SIGTERM stop intake and drain: in-flight and queued jobs finish
// (bounded by -drain) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	tilt "repro"
	"repro/internal/jobs"
	"repro/internal/journal"
	"repro/internal/linqhttp"
	"repro/internal/tenant"
	"repro/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("linqd: ")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// run is the testable body of the daemon: parse flags, assemble the
// backends, the job manager, and the HTTP server, serve until ctx is
// cancelled, then drain. It returns once the drain completes.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("linqd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once serving")
		head     = fs.Int("head", 16, "TILT tape head size")
		ions     = fs.Int("ions", 0, "chain length (0 = each circuit's width)")
		workers  = fs.Int("workers", 0, "workers per backend pool (0 = GOMAXPROCS)")
		cache    = fs.Int("cache", 128, "compile-cache entries per backend (0 disables)")
		store    = fs.Int("store", 1024, "completed jobs kept for polling")
		shots    = fs.Int("shots", 0, "Monte-Carlo cross-check shots on TILT (0 = analytic only)")
		drain    = fs.Duration("drain", 30*time.Second, "max time to drain jobs on shutdown")
		version  = fs.Bool("version", false, "print the build version and exit")

		journalDir = fs.String("journal-dir", "", "write-ahead job journal directory (empty = in-memory only)")
		journalSeg = fs.Int64("journal-segment-bytes", 0, "journal segment rotation size (0 = default 4MiB)")
		journalNoF = fs.Bool("journal-nosync", false, "skip the fsync of each submission record before its 202 (faster, loses the power-failure guarantee; started and terminal records are not fsynced either way)")
		tenantsCfg = fs.String("tenants", "", "tenants JSON config; turns on API-key auth, quotas, and rate limits")

		logFormat   = fs.String("log-format", "text", `structured request/lifecycle log format: "text" or "json" (stderr)`)
		traceStore  = fs.Int("trace-store", 512, "finished traces kept in memory for /v1/traces (0 disables tracing)")
		traceExport = fs.String("trace-export", "", `append finished spans as JSON lines to this file ("-" = stderr)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintf(out, "linqd %s\n", linqhttp.Version())
		return nil
	}

	// Structured log: requests and lifecycle events on stderr, with trace,
	// job, and tenant IDs attached. The terse stdout lines (listening on,
	// recovered, drained) stay as the stable machine-greppable interface.
	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("linqd: unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	reg := tilt.NewMetricsRegistry()
	common := []tilt.Option{tilt.WithDevice(*ions, *head), tilt.WithMetrics(reg)}
	tiltOpts := append([]tilt.Option{}, common...)
	if *cache > 0 {
		tiltOpts = append(tiltOpts, tilt.WithCompileCache(*cache))
	}
	if *shots > 0 {
		tiltOpts = append(tiltOpts, tilt.WithShots(*shots))
	}
	mgrOpts := []jobs.Option{jobs.WithStoreSize(*store), jobs.WithMetrics(reg)}
	srvOpts := []linqhttp.ServerOption{linqhttp.WithLogger(logger)}
	if *traceStore > 0 {
		topts := []tracing.Option{tracing.WithMaxTraces(*traceStore), tracing.WithMetrics(reg)}
		if *traceExport != "" {
			w := io.Writer(os.Stderr)
			if *traceExport != "-" {
				f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return fmt.Errorf("linqd: trace export: %w", err)
				}
				defer f.Close()
				w = f
			}
			topts = append(topts, tracing.WithExporter(tracing.NewJSONExporter(w)))
		}
		tracer := tracing.New("linqd", topts...)
		mgrOpts = append(mgrOpts, jobs.WithTracer(tracer))
		srvOpts = append(srvOpts, linqhttp.WithTracer(tracer))
	}
	if *tenantsCfg != "" {
		treg, err := tenant.LoadFile(*tenantsCfg)
		if err != nil {
			return err
		}
		mgrOpts = append(mgrOpts, jobs.WithTenants(treg))
		srvOpts = append(srvOpts, linqhttp.WithTenantAuth(treg))
		fmt.Fprintf(out, "linqd: serving %d tenants from %s\n", len(treg.IDs()), *tenantsCfg)
	}
	var jnl *journal.Journal
	if *journalDir != "" {
		jopts := []journal.Option{journal.WithMetrics(reg)}
		if *journalSeg > 0 {
			jopts = append(jopts, journal.WithSegmentBytes(*journalSeg))
		}
		if *journalNoF {
			jopts = append(jopts, journal.WithoutSync())
		}
		var err error
		if jnl, err = journal.Open(*journalDir, jopts...); err != nil {
			return err
		}
		defer jnl.Close()
		mgrOpts = append(mgrOpts, jobs.WithJournal(jnl))
	}
	mgr, err := jobs.New([]jobs.Pool{
		{Name: "TILT", Backend: tilt.NewTILT(tiltOpts...), Workers: *workers},
		{Name: "QCCD", Backend: tilt.NewQCCD(common...), Workers: *workers},
		{Name: "IdealTI", Backend: tilt.NewIdealTI(common...), Workers: *workers},
	}, mgrOpts...)
	if err != nil {
		return err // the deferred jnl.Close releases the journal
	}
	if jnl != nil {
		rc := mgr.Recovery()
		fmt.Fprintf(out, "linqd: journal %s: recovered %d terminal, %d requeued, %d rerun, %d expired, %d unrecoverable\n",
			*journalDir, rc.Terminal, rc.Requeued, rc.Rerun, rc.Expired, rc.Unrecoverable)
		logger.Info("journal recovered", "dir", *journalDir,
			"terminal", rc.Terminal, "requeued", rc.Requeued, "rerun", rc.Rerun,
			"expired", rc.Expired, "unrecoverable", rc.Unrecoverable)
	}

	srv := linqhttp.NewServer(mgr, reg, srvOpts...)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	fmt.Fprintf(out, "linqd: listening on %s\n", bound)
	logger.Info("listening", "addr", bound, "version", linqhttp.Version())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	httpSrv := &http.Server{Handler: srv.Routes()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop intake (close the listener, finish in-flight
	// HTTP exchanges), then drain the job queue so every accepted job
	// reaches a terminal state before the process exits.
	fmt.Fprintf(out, "linqd: shutting down, draining jobs (max %v)\n", *drain)
	logger.Info("draining", "max", *drain)
	// The signal ctx is already done here; WithoutCancel detaches the
	// drain deadline from it without minting a fresh context root.
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
	}
	drainErr := mgr.Shutdown(drainCtx)
	st := mgr.Stats()
	fmt.Fprintf(out, "linqd: drained: %d submitted (%d deduped), %d done, %d failed, %d cancelled\n",
		st.Submitted, st.Deduped, st.Done, st.Failed, st.Cancelled)
	logger.Info("drained", "submitted", st.Submitted, "deduped", st.Deduped,
		"done", st.Done, "failed", st.Failed, "cancelled", st.Cancelled)
	if drainErr != nil {
		return fmt.Errorf("linqd: drain incomplete: %w", drainErr)
	}
	return nil
}
