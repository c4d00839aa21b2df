//! End-to-end and per-layer benchmark of the reqblock simulator.
//!
//! ```text
//! perfbench --workload <gc_write|read_hot|fleet_mixed|paper_grid> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>] [--rev <git rev>]
//! ```
//!
//! Usually run through `python3 perfbench/run.py`, which builds this
//! package and forwards the arguments. Each invocation runs one workload in
//! this process and prints every metric by name with its unit, the output
//! checks, a provenance line, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics (tracing off; the host-time ones scaled by a
//! reference loop timed between replays, so host speed drift cancels);
//! `--trace 1` the per-layer metrics of a traced run plus the tracing
//! overhead. The exit code is non-zero when any output check fails or a
//! replay panics.
//!
//! Why these workloads (each exercises layers the others leave idle):
//!
//! * `gc_write` — proj_0 through Req-block 16 MB on a two-chip device at
//!   ~115% of its footprint: FTL garbage collection and flash programs do
//!   most of the work.
//! * `read_hot` — hm_1 (4.7% writes) through Req-block 16 MB on the
//!   paper's 128 GB device: buffer lookups and read misses dominate and GC
//!   never runs, so an FTL write or GC change should not move it.
//! * `fleet_mixed` — the X8 three-tenant mix on eight queued Req-block
//!   32 MB devices, derated until no device's backlog grows: the only
//!   workload on the queued host path, open-loop arrivals, the fleet
//!   merge and pooled device reset.
//! * `paper_grid` — the committed `comparison` scenario (72 jobs) through
//!   the scenario planner and the task pool: the only workload on the
//!   baseline policies, the planner and the shared trace cache.

mod layers;
mod workloads;

use reqblock_obs::CountingAlloc;
use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{Ctx, Report, Single};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// `alloc(true)` restarts peak tracking; `alloc(false)` reads the peak.
fn alloc(reset: bool) -> usize {
    if reset {
        ALLOC.reset_peak();
    }
    ALLOC.peak_bytes()
}

struct Args {
    workload: String,
    ctx: Ctx,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (0u64, 10.0f64, false);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut rev = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let timer_ns = layers::timer_overhead_ns();
    Ok(Args { workload, ctx: Ctx { seed, seconds, traced, timer_ns, work_dir }, rev })
}

fn run(workload: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match workload {
        "gc_write" => workloads::single(ctx, Single::GcWrite, &alloc, report),
        "read_hot" => workloads::single(ctx, Single::ReadHot, &alloc, report),
        "fleet_mixed" => workloads::fleet(ctx, &alloc, report),
        "paper_grid" => workloads::grid(ctx, &alloc, report),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn json_result(correct: bool, report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match args.workload.as_str() {
        "fleet_mixed" | "paper_grid" => workloads::POOL_THREADS,
        _ => 1,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} nproc={nproc} threads={threads} timer_ns={}",
        args.workload, ctx.seed, ctx.seconds, ctx.traced as u8, args.rev, ctx.timer_ns
    );
    let mut report = Report::default();
    let error = run(&args.workload, ctx, &mut report).err();
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    for m in &report.metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let mut notes = report.notes.clone();
    notes.dedup();
    for note in &notes {
        println!("# {note}");
    }
    let mut correct = error.is_none();
    for (name, ok) in &report.checks {
        correct &= ok;
        if !ok {
            println!("# CHECK FAILED: {name}");
        }
    }
    println!("# {} output checks run", report.checks.len());
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        println!("# CHECK FAILED: a metric is not finite");
        correct = false;
    }
    if let Some(e) = &error {
        println!("# ERROR: {e}");
    }
    println!("{}", json_result(correct, &report));
    if !correct {
        std::process::exit(1);
    }
}
