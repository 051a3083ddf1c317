//! The three workloads, their set-up, and the metrics each reports.
//!
//! * `status_pull` — two connections, each keeping a 16-deep multiplexed
//!   flight of status requests going against the RA; then, with the
//!   readers idle, revocation cycles at a fixed cadence probed with
//!   `fetch_and_validate`.
//! * `handshake_inline` / `handshake_full` — two clients at a time running
//!   TLS handshakes through the inline relay (with and without session
//!   resumption); then, with the clients idle, revocation cycles at a
//!   fixed cadence probed with a handshake the middlebox must reset.
//! * `revocation_churn` — one 16-deep reader beside revocation cycles at a
//!   fixed cadence, each probed with `fetch_and_validate`.
//!
//! Every workload is closed loop: each caller waits for its reply.

use crate::handshake::{replay, Lane, Replayed, Visitor, VisitsOut};
use crate::report::Report;
use crate::stats::{median, Timings};
use crate::status::{
    enforce_cycles, run_readers, status_probe, Pace, ReadMix, Reader, ReaderCtx, ReaderOut,
};
use crate::trace::{self, Span};
use crate::world::{Scale, SyncTotals, World};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ritm_agent::intercept::{FlowTable, InterceptConfig, InterceptStats};
use ritm_rt::{Executor, Handle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Real-time spacing of revocation batches.
pub const CADENCE: Duration = Duration::from_millis(80);
/// Share of a `status_pull` or handshake run spent under its main load;
/// revocation cycles on the otherwise idle system take the rest.
const MAIN_SHARE: f64 = 0.5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Load before measuring, part of set-up.
const WARMUP: Duration = Duration::from_millis(300);
/// Handshakes replayed in process for the traced `intercept`/`tls` costs.
const REPLAYED: u32 = 400;
/// Threads of the runtime every RITM endpoint runs on. On a 2-CPU host
/// the generator threads (and `revocation_churn`'s writer) need the other
/// CPU: with two runtime threads a single busy neighbour thread cut
/// `status_pull` throughput by 43% and doubled the churn window, while
/// with one it moved every end-to-end metric by at most 15%.
pub const RUNTIME_THREADS: usize = 1;

/// The end-to-end metrics every untraced run reports.
///
/// Untraced runs also print the latency p90/p99 and the enforcement p90,
/// but across ten seeds on a 2-CPU host those tails spread by 0.2–0.8 of
/// their median, so they are reported as per-layer numbers of the traced
/// run instead of being gated.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "enforce_p50_ms",
    "wire_bytes_per_op",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: [&str; 31] = [
    "latency_p99_ms",
    "enforce_p90_ms",
    "rt.sweeps_per_op",
    "rt.backoff_sweeps_per_op",
    "rt.parked_max",
    "proto.wire_us",
    "proto.req_bytes",
    "proto.resp_bytes",
    "proto.allocs_per_op",
    "proto.drops",
    "serve.hit_us",
    "serve.miss_us",
    "serve.encoded_hit_ratio",
    "serve.proof_hit_ratio",
    "sync.local_ms",
    "sync.wire_ms",
    "sync.retries",
    "sync.rejected",
    "ca.revoke_ms",
    "cdn.edge_us",
    "cdn.hit_ratio",
    "client.validate_us",
    "intercept.process_us_per_flow",
    "intercept.resets",
    "intercept.staples",
    "intercept.staple_bytes",
    "tls.client_feed_us_per_hs",
    "tls.server_feed_us_per_hs",
    "trace.ops_ratio",
    "trace.untraced_ops_per_s",
    "trace.traced_ops_per_s",
];

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Multiplexed status pulls against the RA.
    StatusPull,
    /// TLS handshakes through the inline middlebox, one benign visit in
    /// four resuming its previous session.
    HandshakeInline,
    /// The same lane with full handshakes only.
    HandshakeFull,
    /// Status reads beside revocations.
    RevocationChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::StatusPull,
        Workload::HandshakeInline,
        Workload::HandshakeFull,
        Workload::RevocationChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StatusPull => "status_pull",
            Workload::HandshakeInline => "handshake_inline",
            Workload::HandshakeFull => "handshake_full",
            Workload::RevocationChurn => "revocation_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Check one reply against a wrong answer — the benchmark's own tests
    /// use it to prove wrong answers are caught.
    pub plant: bool,
    /// Serials in the universe (half revoked).
    pub universe: u32,
}

impl Plan {
    /// How long the main load runs.
    fn main_secs(&self) -> Duration {
        match self.workload {
            Workload::RevocationChurn => Duration::from_secs_f64(self.seconds),
            _ => Duration::from_secs_f64(self.seconds * MAIN_SHARE),
        }
    }

    /// How long revocation cycles run: beside the main load for
    /// `revocation_churn`, after it otherwise.
    fn cycle_secs(&self) -> Duration {
        match self.workload {
            Workload::RevocationChurn => Duration::from_secs_f64(self.seconds),
            _ => Duration::from_secs_f64(self.seconds * (1.0 - MAIN_SHARE)),
        }
    }

    /// Batches the CA must pre-issue: one per cadence tick, plus the
    /// warm-up cycle and slack.
    fn batches(&self) -> usize {
        (self.cycle_secs().as_secs_f64() / CADENCE.as_secs_f64()).ceil() as usize + 3
    }

    /// Whether handshake visits resume sessions.
    fn resumes(&self) -> bool {
        self.workload == Workload::HandshakeInline
    }

    fn scale(&self) -> Scale {
        Scale {
            universe: self.universe,
            batches: self.batches(),
        }
    }

    fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }
}

/// Runs `plan` on a fresh runtime of [`RUNTIME_THREADS`] threads and
/// returns its report.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let exec = Executor::new(RUNTIME_THREADS);
    let handle = exec.handle();
    let result = match plan.workload {
        Workload::StatusPull => status_pull(plan, &handle),
        Workload::HandshakeInline | Workload::HandshakeFull => handshake(plan, &handle),
        Workload::RevocationChurn => revocation_churn(plan, &handle),
    };
    // Every endpoint has been shut down (or dropped, which closes it), so
    // the runtime drains.
    exec.shutdown();
    result
}

/// Times one set-up (its warm-up's operations are checked like any
/// other and land in `r`).
fn timed_setup<T>(
    times: &mut Vec<f64>,
    r: &mut Report,
    build: impl FnOnce() -> Result<(T, Report), String>,
) -> Result<T, String> {
    let start = Instant::now();
    let (built, warm) = build()?;
    times.push(start.elapsed().as_secs_f64());
    r.absorb(warm);
    Ok(built)
}

/// After the measurement (so that `peak_rss_mb` saw one set-up): builds
/// and tears down the system until `SETUPS` set-ups were timed, then
/// reports their median as `setup_s`. Traced runs time only the one.
fn finish_setups<T>(
    plan: &Plan,
    mut times: Vec<f64>,
    r: &mut Report,
    mut build: impl FnMut() -> Result<(T, Report), String>,
    mut teardown: impl FnMut(T),
) -> Result<(), String> {
    while !plan.trace && times.len() < SETUPS {
        let built = timed_setup(&mut times, r, &mut build)?;
        teardown(built);
    }
    r.metric("setup_s", median(&times), "s", Some(times.len()));
    Ok(())
}

/// Counters read at the edges of a traced phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    sweeps: u64,
    backoff_sweeps: u64,
    allocs: u64,
    encoded: (u64, u64),
    proofs: (u64, u64),
    at: Option<Instant>,
}

fn counters(world: &World, handle: &Handle) -> Counters {
    let rt = handle.reactor().stats();
    let single = world.status.encoded_cache_stats();
    let multi = world.status.encoded_multi_cache_stats();
    let proofs = world.status.cache_stats();
    Counters {
        sweeps: rt.sweeps,
        backoff_sweeps: rt.backoff_sweeps,
        allocs: trace::allocs(),
        encoded: (single.hits + multi.hits, single.misses + multi.misses),
        proofs: (proofs.hits, proofs.misses),
        at: Some(Instant::now()),
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn per_sec(count: u64, over: Duration) -> f64 {
    count as f64 / over.as_secs_f64()
}

/// Turns tracing (spans and allocation counting) on or off.
fn traced(on: bool) {
    trace::set_enabled(on);
    trace::count_allocs(on);
}

/// What a traced run measured, turned into the per-layer metrics.
#[derive(Default)]
struct Layers {
    /// Operations in the traced main phase.
    ops: u64,
    before: Counters,
    after: Counters,
    parked_max: usize,
    main_spans: Vec<Span>,
    cycle_spans: Vec<Span>,
    reads: Option<ReaderOut>,
    drops: u64,
    sync: SyncTotals,
    cdn_hit_ratio: f64,
    intercept: InterceptStats,
    replayed: Vec<Replayed>,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    /// Latencies of the traced main phase (ms).
    latencies: Vec<f64>,
    /// Enforcement windows of the traced cycles (ms).
    windows: Vec<f64>,
}

fn median_or_zero(values: &[f64]) -> (f64, usize) {
    if values.is_empty() {
        (0.0, 0)
    } else {
        (median(values), values.len())
    }
}

impl Layers {
    /// Writes the spans to `.bench_trace/` and reports the per-layer
    /// metrics.
    fn finish(self, r: &mut Report, plan: &Plan) {
        let path = std::path::PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.tsv",
            plan.workload.name(),
            plan.seed
        ));
        let mut spans = self.main_spans.clone();
        spans.extend_from_slice(&self.cycle_spans);
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
        self.report(r);
    }

    fn report(self, r: &mut Report) {
        r.timing("latency", &[99.0], &Timings::new(self.latencies.clone()));
        r.timing("enforce", &[90.0], &Timings::new(self.windows.clone()));
        let ops = self.ops.max(1) as f64;
        let (b, a) = (self.before, self.after);
        r.metric(
            "rt.sweeps_per_op",
            (a.sweeps - b.sweeps) as f64 / ops,
            "count",
            None,
        );
        r.metric(
            "rt.backoff_sweeps_per_op",
            (a.backoff_sweeps - b.backoff_sweeps) as f64 / ops,
            "count",
            None,
        );
        r.metric("rt.parked_max", self.parked_max as f64, "count", None);

        let all: Vec<&Span> = self.main_spans.iter().chain(&self.cycle_spans).collect();
        let durations = |name: &str, spans: &[&Span]| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.micros())
                .collect()
        };
        let main: Vec<&Span> = self.main_spans.iter().collect();
        let (wire_us, req_bytes, resp_bytes) = match &self.reads {
            Some(reads) if reads.requests > 0 => {
                let serve_us: f64 = main
                    .iter()
                    .filter(|s| s.name.starts_with("serve."))
                    .map(|s| s.micros())
                    .sum();
                let flight_us: f64 = reads.flights.iter().sum::<f64>() * 1e3;
                (
                    (flight_us - serve_us) / reads.flights.len() as f64,
                    reads.req_bytes as f64 / reads.requests as f64,
                    reads.resp_bytes as f64 / reads.requests as f64,
                )
            }
            _ => (0.0, 0.0, 0.0),
        };
        r.metric("proto.wire_us", wire_us, "us", None);
        r.metric("proto.req_bytes", req_bytes, "bytes", None);
        r.metric("proto.resp_bytes", resp_bytes, "bytes", None);
        r.metric(
            "proto.allocs_per_op",
            (a.allocs - b.allocs) as f64 / ops,
            "count",
            None,
        );
        r.metric("proto.drops", self.drops as f64, "count", None);

        let (hit, n_hit) = median_or_zero(&durations("serve.hit", &main));
        let (miss, n_miss) = median_or_zero(&durations("serve.miss", &main));
        r.metric("serve.hit_us", hit, "us", Some(n_hit));
        r.metric("serve.miss_us", miss, "us", Some(n_miss));
        r.metric(
            "serve.encoded_hit_ratio",
            ratio(a.encoded.0 - b.encoded.0, a.encoded.1 - b.encoded.1),
            "ratio",
            None,
        );
        r.metric(
            "serve.proof_hit_ratio",
            ratio(a.proofs.0 - b.proofs.0, a.proofs.1 - b.proofs.1),
            "ratio",
            None,
        );

        // A sync's self time is its span minus the wire flights under it.
        let (mut local, mut wire) = (Vec::new(), Vec::new());
        for s in all.iter().filter(|s| s.name == "sync") {
            let inside: f64 = all
                .iter()
                .filter(|c| c.name == "sync.wire" && c.parent == s.id)
                .map(|c| c.micros())
                .sum();
            local.push((s.micros() - inside) / 1e3);
            wire.push(inside / 1e3);
        }
        let (local_ms, n) = median_or_zero(&local);
        r.metric("sync.local_ms", local_ms, "ms", Some(n));
        r.metric("sync.wire_ms", median_or_zero(&wire).0, "ms", Some(n));
        r.metric("sync.retries", self.sync.retries as f64, "count", None);
        r.metric("sync.rejected", self.sync.rejected as f64, "count", None);
        let (revoke_us, n) = median_or_zero(&durations("ca.revoke", &all));
        r.metric("ca.revoke_ms", revoke_us / 1e3, "ms", Some(n));
        let (edge_us, n) = median_or_zero(&durations("cdn.edge", &all));
        r.metric("cdn.edge_us", edge_us, "us", Some(n));
        r.metric("cdn.hit_ratio", self.cdn_hit_ratio, "ratio", None);
        let (validate_us, n) = median_or_zero(&durations("client.validate", &all));
        r.metric("client.validate_us", validate_us, "us", Some(n));

        let pick = |f: fn(&Replayed) -> f64| {
            median_or_zero(&self.replayed.iter().map(f).collect::<Vec<_>>())
        };
        let (process_us, n) = pick(|x| x.process_us);
        r.metric("intercept.process_us_per_flow", process_us, "us", Some(n));
        let i = self.intercept;
        r.metric("intercept.resets", i.flows_reset as f64, "count", None);
        r.metric(
            "intercept.staples",
            i.statuses_injected as f64,
            "count",
            None,
        );
        r.metric(
            "intercept.staple_bytes",
            if i.statuses_injected == 0 {
                0.0
            } else {
                i.bytes_injected as f64 / i.statuses_injected as f64
            },
            "bytes",
            None,
        );
        let (client_us, n) = pick(|x| x.client_us);
        r.metric("tls.client_feed_us_per_hs", client_us, "us", Some(n));
        r.metric(
            "tls.server_feed_us_per_hs",
            pick(|x| x.server_us).0,
            "us",
            Some(n),
        );

        r.metric(
            "trace.ops_ratio",
            if self.untraced_ops_per_s > 0.0 {
                self.traced_ops_per_s / self.untraced_ops_per_s
            } else {
                0.0
            },
            "ratio",
            None,
        );
        r.metric(
            "trace.untraced_ops_per_s",
            self.untraced_ops_per_s,
            "1/s",
            None,
        );
        r.metric("trace.traced_ops_per_s", self.traced_ops_per_s, "1/s", None);
    }
}

/// The process's resident-set high-water mark in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reports the end-to-end set after set-up: throughput over `elapsed`,
/// the latency and enforcement timings, bytes per operation and memory.
fn end_to_end(
    r: &mut Report,
    ops: u64,
    elapsed: Duration,
    latencies: Vec<f64>,
    windows: Vec<f64>,
    wire_bytes_per_op: f64,
) {
    r.metric(
        "ops_per_s",
        per_sec(ops, elapsed),
        "1/s",
        Some(ops as usize),
    );
    r.timing("latency", &[50.0, 90.0, 99.0], &Timings::new(latencies));
    r.timing("enforce", &[50.0, 90.0], &Timings::new(windows));
    r.metric("wire_bytes_per_op", wire_bytes_per_op, "bytes", None);
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB", None);
}

struct StatusSetup {
    world: World,
    readers: Vec<Reader>,
    ctx: ReaderCtx,
}

/// Builds the world and two warmed-up reader connections (`status_pull`
/// reads on both; `revocation_churn` reads on one and probes on the other).
fn setup_status(plan: &Plan, handle: &Handle) -> Result<(StatusSetup, Report), String> {
    let mut world = World::build(plan.scale(), plan.seed, handle)?;
    let mix = Arc::new(ReadMix::new(world.universe, plan.seed));
    let ctx = ReaderCtx::new(&world, mix, handle.reactor());
    let mut readers = (0..2)
        .map(|i| Reader::connect(world.ra_server.addr(), plan.seed ^ (0x7ead << 8 | i)))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: one revocation cycle probed over the first reader's
    // connection, then every reader under load.
    let (transport, tracker) = readers[0].transport();
    let warm = enforce_cycles(
        &mut world,
        Pace::Once,
        &mut plan.rng(1),
        status_probe(transport, tracker),
    );
    let mut report = run_readers(&mut readers, &ctx, Instant::now() + WARMUP).report;
    report.absorb(warm.report);
    Ok((
        StatusSetup {
            world,
            readers,
            ctx,
        },
        report,
    ))
}

fn status_pull(plan: &Plan, handle: &Handle) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let StatusSetup {
        mut world,
        mut readers,
        ctx,
    } = timed_setup(&mut setups, &mut r, || setup_status(plan, handle))?;
    readers[0].plant = plan.plant;
    let main = plan.main_secs();
    let mut layers = Layers::default();
    let mut elapsed = main;
    let reads = if plan.trace {
        let start = Instant::now();
        let untraced = run_readers(&mut readers, &ctx, start + main / 2);
        layers.untraced_ops_per_s = per_sec(untraced.requests, start.elapsed());
        r.absorb(untraced.report);
        traced(true);
        layers.before = counters(&world, handle);
        let mut reads = run_readers(&mut readers, &ctx, Instant::now() + main / 2);
        layers.after = counters(&world, handle);
        let took = layers.after.at.zip(layers.before.at).map(|(a, b)| a - b);
        layers.traced_ops_per_s = per_sec(reads.requests, took.unwrap_or(main / 2));
        layers.ops = reads.requests;
        layers.parked_max = reads.parked_max;
        layers.main_spans = trace::drain();
        r.absorb(std::mem::take(&mut reads.report));
        reads
    } else {
        let start = Instant::now();
        let mut reads = run_readers(&mut readers, &ctx, start + main);
        elapsed = start.elapsed();
        r.absorb(std::mem::take(&mut reads.report));
        reads
    };

    let sync_before = world.sync_totals;
    let (transport, tracker) = readers[0].transport();
    let cycles = enforce_cycles(
        &mut world,
        Pace::Every(CADENCE, Instant::now() + plan.cycle_secs()),
        &mut plan.rng(2),
        status_probe(transport, tracker),
    );
    r.absorb(cycles.report);
    if plan.trace {
        layers.cycle_spans = trace::drain();
        traced(false);
        layers.sync = diff_sync(world.sync_totals, sync_before);
        layers.drops = world.drops();
        layers.cdn_hit_ratio = world.cdn_hit_ratio();
        layers.latencies = reads.flights.clone();
        layers.windows = cycles.windows;
        layers.reads = Some(reads);
        layers.finish(&mut r, plan);
    } else {
        let per_op = reads.resp_bytes as f64 / reads.requests.max(1) as f64;
        end_to_end(
            &mut r,
            reads.requests,
            elapsed,
            reads.flights,
            cycles.windows,
            per_op,
        );
    }
    drop(readers);
    world.shutdown();
    finish_setups(
        plan,
        setups,
        &mut r,
        || setup_status(plan, handle),
        |s| s.world.shutdown(),
    )?;
    Ok(r)
}

fn diff_sync(a: SyncTotals, b: SyncTotals) -> SyncTotals {
    SyncTotals {
        bytes: a.bytes - b.bytes,
        revocations: a.revocations - b.revocations,
        retries: a.retries - b.retries,
        rejected: a.rejected - b.rejected,
    }
}

fn revocation_churn(plan: &Plan, handle: &Handle) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    // One reader connection; the second generator connection is the
    // enforcement probe's.
    let StatusSetup {
        mut world,
        mut readers,
        ctx,
    } = timed_setup(&mut setups, &mut r, || setup_status(plan, handle))?;
    let (mut reader, mut prober) = {
        let mut it = readers.drain(..);
        let (a, b) = (it.next(), it.next());
        (a.ok_or("no reader")?, b.ok_or("no prober")?)
    };
    reader.plant = plan.plant;
    let mut rng = plan.rng(3);
    let mut layers = Layers::default();
    let mut phase = |world: &mut World, secs: Duration| {
        let start = Instant::now();
        let until = start + secs;
        let (reads, cycles) = std::thread::scope(|s| {
            let reading = s.spawn(|| reader.run(&ctx, until));
            let (transport, tracker) = prober.transport();
            let pace = Pace::Every(CADENCE, until);
            let cycles = enforce_cycles(world, pace, &mut rng, status_probe(transport, tracker));
            (reading.join().expect("reader thread panicked"), cycles)
        });
        (reads, cycles, start.elapsed())
    };

    let sync_before = world.sync_totals;
    let total = Duration::from_secs_f64(plan.seconds);
    if plan.trace {
        let (reads, cycles, took) = phase(&mut world, total / 2);
        layers.untraced_ops_per_s = per_sec(reads.requests, took);
        r.absorb(reads.report);
        r.absorb(cycles.report);
        let sync_mid = world.sync_totals;
        traced(true);
        layers.before = counters(&world, handle);
        let (mut reads, cycles, took) = phase(&mut world, total / 2);
        layers.after = counters(&world, handle);
        layers.main_spans = trace::drain();
        traced(false);
        layers.traced_ops_per_s = per_sec(reads.requests, took);
        layers.ops = reads.requests;
        layers.parked_max = reads.parked_max;
        r.absorb(std::mem::take(&mut reads.report));
        r.absorb(cycles.report);
        layers.latencies = reads.flights.clone();
        layers.windows = cycles.windows;
        layers.reads = Some(reads);
        layers.sync = diff_sync(world.sync_totals, sync_mid);
        layers.drops = world.drops();
        layers.cdn_hit_ratio = world.cdn_hit_ratio();
        layers.finish(&mut r, plan);
    } else {
        let (mut reads, cycles, took) = phase(&mut world, total);
        r.absorb(std::mem::take(&mut reads.report));
        r.absorb(cycles.report);
        let sync = diff_sync(world.sync_totals, sync_before);
        let per_revocation = sync.bytes as f64 / sync.revocations.max(1) as f64;
        end_to_end(
            &mut r,
            reads.requests,
            took,
            reads.flights,
            cycles.windows,
            per_revocation,
        );
    }
    drop((reader, prober));
    world.shutdown();
    finish_setups(
        plan,
        setups,
        &mut r,
        || setup_status(plan, handle),
        |s| s.world.shutdown(),
    )?;
    Ok(r)
}

struct HandshakeSetup {
    world: World,
    lane: Lane,
    visitors: Vec<Visitor>,
}

fn setup_handshake(plan: &Plan, handle: &Handle) -> Result<(HandshakeSetup, Report), String> {
    let mut world = World::build(plan.scale(), plan.seed, handle)?;
    let lane = Lane::build(&world, handle, &mut plan.rng(14))?;
    let mut visitors: Vec<Visitor> = (0..2)
        .map(|i| Visitor::new(i as u32, plan.resumes(), plan.rng(10 + i)))
        .collect();
    let warm = enforce_cycles(
        &mut world,
        Pace::Once,
        &mut plan.rng(11),
        |w, pick, rev, _| visitors[0].probe_reset(&lane, handle, &rev.certs[pick], w.now()),
    );
    let mut report = run_visitors(
        &mut visitors,
        &lane,
        &world,
        handle,
        Instant::now() + WARMUP,
    )
    .report;
    report.absorb(warm.report);
    Ok((
        HandshakeSetup {
            world,
            lane,
            visitors,
        },
        report,
    ))
}

fn run_visitors(
    visitors: &mut [Visitor],
    lane: &Lane,
    world: &World,
    handle: &Handle,
    until: Instant,
) -> VisitsOut {
    std::thread::scope(|s| {
        let handles: Vec<_> = visitors
            .iter_mut()
            .map(|v| s.spawn(move || v.run(lane, world, handle, until)))
            .collect();
        let mut all = VisitsOut::default();
        for h in handles {
            all.absorb(h.join().expect("visitor thread panicked"));
        }
        all
    })
}

fn handshake(plan: &Plan, handle: &Handle) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let HandshakeSetup {
        mut world,
        lane,
        mut visitors,
    } = timed_setup(&mut setups, &mut r, || setup_handshake(plan, handle))?;
    visitors[0].plant = plan.plant;
    let main = plan.main_secs();
    let mut layers = Layers::default();
    let mut elapsed = main;
    let resets = |lane: &Lane| lane.table.lock().stats();

    let phase = |visitors: &mut [Visitor], world: &World, secs: Duration| {
        let before = resets(&lane);
        let start = Instant::now();
        let mut out = run_visitors(visitors, &lane, world, handle, start + secs);
        let took = start.elapsed();
        let after = resets(&lane);
        // The table must have reset exactly the revoked-site flows.
        if after.flows_reset - before.flows_reset != out.revoked {
            let (n, m) = (after.flows_reset - before.flows_reset, out.revoked);
            out.report.fail(true, || {
                format!("{n} flows reset for {m} revoked-site visits")
            });
        }
        (out, took, diff_intercept(after, before))
    };

    let visits = if plan.trace {
        let (untraced, took, _) = phase(&mut visitors, &world, main / 2);
        layers.untraced_ops_per_s = per_sec(untraced.completed, took);
        r.absorb(untraced.report);
        traced(true);
        layers.before = counters(&world, handle);
        let (mut visits, took, intercept) = phase(&mut visitors, &world, main / 2);
        layers.after = counters(&world, handle);
        layers.main_spans = trace::drain();
        layers.traced_ops_per_s = per_sec(visits.completed, took);
        layers.ops = visits.completed;
        layers.parked_max = visits.parked_max;
        layers.intercept = intercept;
        r.absorb(std::mem::take(&mut visits.report));
        // The same flows' bytes, driven through a flow table and both
        // engines in process, time `FlowTable::process` and `feed`.
        let mut table = FlowTable::new(Arc::clone(&world.status), InterceptConfig::default());
        let (replayed, report) = replay(
            &lane,
            &mut table,
            &mut plan.rng(12),
            REPLAYED,
            plan.resumes(),
            world.now(),
        );
        layers.replayed = replayed;
        r.absorb(report);
        visits
    } else {
        let (mut visits, took, _) = phase(&mut visitors, &world, main);
        r.absorb(std::mem::take(&mut visits.report));
        elapsed = took;
        visits
    };

    let sync_before = world.sync_totals;
    let prober = &mut visitors[0];
    let cycles = enforce_cycles(
        &mut world,
        Pace::Every(CADENCE, Instant::now() + plan.cycle_secs()),
        &mut plan.rng(13),
        |w, pick, rev, _| prober.probe_reset(&lane, handle, &rev.certs[pick], w.now()),
    );
    r.absorb(cycles.report);
    if plan.trace {
        layers.cycle_spans = trace::drain();
        traced(false);
        layers.sync = diff_sync(world.sync_totals, sync_before);
        layers.drops = world.drops();
        layers.cdn_hit_ratio = world.cdn_hit_ratio();
        layers.latencies = visits.latencies;
        layers.windows = cycles.windows;
        layers.finish(&mut r, plan);
    } else {
        let per_op = visits.stapled_bytes as f64 / visits.benign.max(1) as f64;
        end_to_end(
            &mut r,
            visits.completed,
            elapsed,
            visits.latencies,
            cycles.windows,
            per_op,
        );
    }
    lane.shutdown();
    world.shutdown();
    finish_setups(
        plan,
        setups,
        &mut r,
        || setup_handshake(plan, handle),
        |s| {
            s.lane.shutdown();
            s.world.shutdown();
        },
    )?;
    Ok(r)
}

fn diff_intercept(a: InterceptStats, b: InterceptStats) -> InterceptStats {
    InterceptStats {
        flows_tracked: a.flows_tracked - b.flows_tracked,
        flows_bypassed: a.flows_bypassed - b.flows_bypassed,
        flows_reset: a.flows_reset - b.flows_reset,
        statuses_injected: a.statuses_injected - b.statuses_injected,
        bytes_injected: a.bytes_injected - b.bytes_injected,
        flows_evicted_idle: a.flows_evicted_idle - b.flows_evicted_idle,
        flows_evicted_capacity: a.flows_evicted_capacity - b.flows_evicted_capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(workload: Workload, plant: bool) -> Report {
        let plan = Plan {
            workload,
            seed: 7,
            seconds: 1.2,
            trace: false,
            plant,
            universe: 20_000,
        };
        run(&plan).expect("a short pass runs")
    }

    #[test]
    fn every_workload_passes_its_checks_on_a_short_run() {
        for w in [
            Workload::StatusPull,
            Workload::HandshakeFull,
            Workload::RevocationChurn,
        ] {
            let r = short(w, false);
            assert!(r.attempted > 0, "{w:?} attempted nothing");
            assert_eq!(r.wrong, 0, "{w:?}: {:?}", r.notes);
            assert!(r.correct());
        }
    }

    #[test]
    fn a_planted_wrong_answer_fails_every_workload() {
        for w in [
            Workload::StatusPull,
            Workload::HandshakeFull,
            Workload::RevocationChurn,
        ] {
            let r = short(w, true);
            assert_eq!(r.wrong, 1, "{w:?}: {:?}", r.notes);
            assert!(
                r.failed >= 1 && !r.correct(),
                "{w:?} passed a planted fault"
            );
        }
    }
}
