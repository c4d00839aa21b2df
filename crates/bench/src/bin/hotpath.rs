//! Dependency-free hot-path benchmark: requests/sec for full-device replay.
//!
//! The workspace builds with no registry access, so this binary measures
//! the end-to-end hot path with nothing but `std::time::Instant`: it
//! replays a scaled `ts_0` synthetic trace through the Req-block policy
//! and LRU on the paper's 16 MB device, repeats each replay a few times,
//! and reports best-of and median-of-repeats requests/sec as JSON (the
//! regression gate reads the median — it is robust to a single noisy
//! repeat in either direction).
//!
//! Each policy is measured four times: with the no-op recorder (the normal
//! synchronous path — this is what the regression gates watch, since a
//! disabled observability layer must cost ~nothing), with a full
//! [`MemoryRecorder`] capturing page events and sampled time series, in
//! queued submit mode (`Queued { depth: 8 }`) to track the host layer's
//! flush-window overhead, and with latency attribution configured but the
//! recorder disabled (`attr_noop`) — the double gate must monomorphize the
//! whole attribution layer away, so this mode is gated against the plain
//! no-op path of the same run. The JSON reports all four plus the recording
//! overhead percentage.
//!
//! GC never runs on the 128 GB device, so one more row (`gc_policies`)
//! replays `proj_0` at the same `--scale` through Req-block 16 MB on the
//! pressured two-chip device of the experiments crate, where the FTL's
//! garbage collection does most of the work. It is reported for
//! information only; no gate reads it.
//!
//! ```text
//! cargo run --release -p reqblock-bench --bin hotpath -- \
//!     [--scale 0.25] [--repeats 3] [--out hotpath.json]
//! ```
//!
//! Without `--out` the JSON goes to stdout. `scripts/bench.sh` wraps this
//! and diffs the numbers against the committed `BENCH_hotpath.json`.

use reqblock_core::ReqBlockConfig;
use reqblock_experiments::extensions::pressured_ssd;
use reqblock_obs::MemoryRecorder;
use reqblock_sim::{
    run_source, run_source_recorded, AttrConfig, CacheSizeMb, PolicyKind, SampleInterval,
    SimConfig, SubmitMode, TraceSource,
};
use std::fmt::Write as _;
use std::time::Instant;

struct PolicyResult {
    name: &'static str,
    requests_per_sec: f64,
    best_elapsed_ms: f64,
    median_requests_per_sec: f64,
    median_elapsed_ms: f64,
    hit_ratio: f64,
}

/// Median of a sample set (mean of the middle pair for even counts).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample set");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::ReqBlock(_) => "Req-block",
        _ => "LRU",
    }
}

/// Best-of and median-of `times` for `requests` replayed requests.
fn policy_result(policy: PolicyKind, requests: u64, times: &[f64], hit_ratio: f64) -> PolicyResult {
    let best = times.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let med = median(times);
    PolicyResult {
        name: policy_name(policy),
        requests_per_sec: requests as f64 / best,
        best_elapsed_ms: best * 1e3,
        median_requests_per_sec: requests as f64 / med,
        median_elapsed_ms: med * 1e3,
        hit_ratio,
    }
}

/// Best-of-`repeats` replay, measured four times per repeat: with the
/// no-op recorder (the normal path), with a full [`MemoryRecorder`]
/// capturing page events plus time series sampled every 1000 requests, in
/// queued submit mode (`Queued { depth: 8 }`, no-op recorder) to track
/// the flush-window overhead of the host layer, and with attribution
/// configured under the no-op recorder (`attr_noop`) — the engine's
/// double gate (`rec.enabled() && attr configured`) must compile the
/// attribution bookkeeping out of this path entirely. The modes are
/// interleaved inside every repeat so a load spike on a shared machine
/// hits all of them the same way — sequential blocks would let background
/// noise masquerade as (or hide) per-mode overhead.
fn measure(
    policy: PolicyKind,
    source: &TraceSource,
    requests: u64,
    repeats: u32,
) -> (PolicyResult, PolicyResult, PolicyResult, PolicyResult) {
    let cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
    let cfg_rec = cfg.clone().with_sampling(SampleInterval::Requests(1_000));
    let cfg_queued = cfg.clone().with_submit(SubmitMode::Queued { depth: 8 });
    let cfg_attr = cfg.clone().with_attribution(AttrConfig::default());
    // Warm-up replays: page in code and the trace generator's tables.
    let warm = run_source(&cfg, source);
    let mut warm_rec = MemoryRecorder::default();
    let warm_recorded = run_source_recorded(&cfg_rec, source, &mut warm_rec);
    assert_eq!(
        warm.metrics, warm_recorded.metrics,
        "recording must not change the simulated model"
    );
    let warm_queued = run_source(&cfg_queued, source);
    assert_eq!(
        warm.flash, warm_queued.flash,
        "flash traffic must be depth-invariant across submit modes"
    );
    let warm_attr = run_source(&cfg_attr, source);
    assert_eq!(
        warm.metrics, warm_attr.metrics,
        "attribution config must not change the simulated model"
    );
    let mut noop_times = Vec::with_capacity(repeats as usize);
    let mut recording_times = Vec::with_capacity(repeats as usize);
    let mut queued_times = Vec::with_capacity(repeats as usize);
    let mut attr_times = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let t0 = Instant::now();
        let res = run_source(&cfg, source);
        noop_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            res.metrics, warm.metrics,
            "replay must be deterministic across repeats"
        );

        let mut rec = MemoryRecorder::default();
        let t0 = Instant::now();
        let res = run_source_recorded(&cfg_rec, source, &mut rec);
        recording_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            res.metrics, warm.metrics,
            "recorded replay must be deterministic across repeats"
        );

        let t0 = Instant::now();
        let res = run_source(&cfg_queued, source);
        queued_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            res.metrics, warm_queued.metrics,
            "queued replay must be deterministic across repeats"
        );

        let t0 = Instant::now();
        let res = run_source(&cfg_attr, source);
        attr_times.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            res.metrics, warm.metrics,
            "attr-noop replay must be deterministic across repeats"
        );
    }
    let result = |times: &[f64]| policy_result(policy, requests, times, warm.metrics.hit_ratio());
    (
        result(&noop_times),
        result(&recording_times),
        result(&queued_times),
        result(&attr_times),
    )
}

/// Median-of-`repeats` Req-block 16 MB replay of `proj_0 x scale` on the
/// pressured device (after one warm-up replay), asserting every repeat
/// reproduces the warm-up's metrics.
fn measure_gc(scale: f64, repeats: u32) -> PolicyResult {
    let profile = reqblock_trace::profiles::proj_0().scaled(scale);
    let requests = profile.requests;
    let policy = PolicyKind::ReqBlock(ReqBlockConfig::paper());
    let mut cfg = SimConfig::paper(CacheSizeMb::Mb16, policy);
    cfg.ssd = pressured_ssd(&profile);
    let source = TraceSource::Synthetic(profile);
    let warm = run_source(&cfg, &source);
    let mut times = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let t0 = Instant::now();
        let res = run_source(&cfg, &source);
        times.push(t0.elapsed().as_secs_f64());
        assert_eq!(res.metrics, warm.metrics, "GC replay must be deterministic across repeats");
    }
    policy_result(policy, requests, &times, warm.metrics.hit_ratio())
}

fn push_policy_array(json: &mut String, key: &str, results: &[PolicyResult], last: bool) {
    let _ = writeln!(json, "  \"{key}\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"requests_per_sec\": {:.1}, \"best_elapsed_ms\": {:.2}, \
             \"median_requests_per_sec\": {:.1}, \"median_elapsed_ms\": {:.2}, \"hit_ratio\": {:.6}}}{}",
            r.name,
            r.requests_per_sec,
            r.best_elapsed_ms,
            r.median_requests_per_sec,
            r.median_elapsed_ms,
            r.hit_ratio,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]{}", if last { "" } else { "," });
}

fn main() {
    let mut scale = 0.25f64;
    let mut repeats = 3u32;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--scale" => scale = value("--scale").parse().expect("--scale must be a number"),
            "--repeats" => repeats = value("--repeats").parse().expect("--repeats must be an int"),
            "--out" => out = Some(value("--out")),
            other => panic!("unknown argument {other:?} (expected --scale/--repeats/--out)"),
        }
    }

    let profile = reqblock_trace::profiles::ts_0().scaled(scale);
    let requests = profile.requests;
    let source = TraceSource::Synthetic(profile);
    eprintln!("hotpath: ts_0 x{scale} = {requests} requests, {repeats} repeats per policy");

    let policies = [PolicyKind::ReqBlock(ReqBlockConfig::paper()), PolicyKind::Lru];
    let mut noop = Vec::new();
    let mut recording = Vec::new();
    let mut queued = Vec::new();
    let mut attr_noop = Vec::new();
    for &p in &policies {
        let (n, r, q, a) = measure(p, &source, requests, repeats);
        noop.push(n);
        recording.push(r);
        queued.push(q);
        attr_noop.push(a);
    }
    eprintln!("hotpath: proj_0 x{scale} on the pressured device (GC), {repeats} repeats");
    let gc = [measure_gc(scale, repeats)];

    for r in &noop {
        eprintln!(
            "hotpath: {:<9} noop      {:>12.0} req/s  (best {:.1} ms, median {:.1} ms, hit ratio {:.4})",
            r.name, r.requests_per_sec, r.best_elapsed_ms, r.median_elapsed_ms, r.hit_ratio
        );
    }
    for r in &gc {
        eprintln!(
            "hotpath: {:<9} gc        {:>12.0} req/s  (median {:.1} ms, best {:.1} ms)",
            r.name, r.median_requests_per_sec, r.median_elapsed_ms, r.best_elapsed_ms
        );
    }
    for (n, r) in noop.iter().zip(&recording) {
        let pct = (r.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        eprintln!(
            "hotpath: {:<9} recording {:>12.0} req/s  (best {:.1} ms, overhead {:+.1}%)",
            r.name, r.requests_per_sec, r.best_elapsed_ms, pct
        );
    }
    for (n, q) in noop.iter().zip(&queued) {
        let pct = (q.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        eprintln!(
            "hotpath: {:<9} queued qd8 {:>11.0} req/s  (best {:.1} ms, overhead {:+.1}%)",
            q.name, q.requests_per_sec, q.best_elapsed_ms, pct
        );
    }
    for (n, a) in noop.iter().zip(&attr_noop) {
        let pct = (a.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        eprintln!(
            "hotpath: {:<9} attr noop {:>12.0} req/s  (best {:.1} ms, overhead {:+.1}%)",
            a.name, a.requests_per_sec, a.best_elapsed_ms, pct
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"hotpath\",");
    let _ = writeln!(json, "  \"trace\": \"ts_0\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"repeats\": {repeats},");
    push_policy_array(&mut json, "policies", &noop, false);
    push_policy_array(&mut json, "recording_policies", &recording, false);
    push_policy_array(&mut json, "queued_policies", &queued, false);
    push_policy_array(&mut json, "attr_noop_policies", &attr_noop, false);
    push_policy_array(&mut json, "gc_policies", &gc, false);
    json.push_str("  \"recording_overhead_pct\": [\n");
    for (i, (n, r)) in noop.iter().zip(&recording).enumerate() {
        let pct = (r.best_elapsed_ms - n.best_elapsed_ms) / n.best_elapsed_ms * 100.0;
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"pct\": {:.2}}}{}",
            n.name,
            pct,
            if i + 1 < noop.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    match out {
        Some(path) => std::fs::write(&path, json).expect("cannot write bench output"),
        None => print!("{json}"),
    }
}
