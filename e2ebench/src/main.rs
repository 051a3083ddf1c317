//! End-to-end RITM benchmark over real loopback sockets.
//!
//! ```text
//! ritm-e2ebench --workload <status_pull|handshake_inline|revocation_churn>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance header, one line per metric (with unit and sample
//! count), and as its last line a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics when untraced, the
//! per-layer metrics when traced. Exits non-zero on any wrong answer.
//! Every RITM endpoint (RA status, CDN edge, relays, TLS servers) runs on
//! one single-thread runtime the benchmark owns; the load comes from at
//! most two generator threads over at most two generator connections.

mod handshake;
mod layers;
mod oracle;
mod report;
mod stats;
mod status;
mod trace;
mod workloads;
mod world;

use std::process::ExitCode;
use workloads::{Plan, Workload, END_TO_END, PER_LAYER, RUNTIME_THREADS};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str =
    "usage: ritm-e2ebench --workload <status_pull|handshake_inline|revocation_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Serials in the universe; half of them are revoked at the CA.
const UNIVERSE: u32 = 2_000_000;

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        plant: false,
        universe: UNIVERSE,
    })
}

/// The commit being measured, when the working directory is a git
/// checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// UTC `YYYY-MM-DDTHH:MM:SSZ` for the current time.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (proleptic Gregorian), after H. Hinnant.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

/// Sockets in TIME_WAIT host-wide, from `/proc/net/sockstat`.
fn time_wait() -> String {
    std::fs::read_to_string("/proc/net/sockstat")
        .ok()
        .and_then(|s| {
            let tcp = s.lines().find(|l| l.starts_with("TCP:"))?;
            let mut words = tcp.split_whitespace();
            words.find(|w| *w == "tw")?;
            words.next().map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# ritm-e2ebench commit={} available_parallelism={} seed={} profile={} date={}",
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plan.seed,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        utc_now()
    );
    println!(
        "# workload={} seconds={} trace={} universe={} runtime_threads={} time_wait_at_start={}",
        plan.workload.name(),
        plan.seconds,
        u8::from(plan.trace),
        plan.universe,
        RUNTIME_THREADS,
        time_wait()
    );
    let report = match workloads::run(&plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.table());
    if !report.unsupported.is_empty() {
        eprintln!("benchmark error: a metric's sample cannot support it (run longer)");
        return ExitCode::FAILURE;
    }
    let names: &[&str] = if plan.trace { &PER_LAYER } else { &END_TO_END };
    match report.json(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
