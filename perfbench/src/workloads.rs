//! The four benchmark workloads. Each one builds its inputs from the
//! workload seed, times the simulator through the public entry points
//! `repro` uses (`run_source`, `run_fleet`, `scenario::plan` +
//! `run_task_pool`) with tracing off, and then checks the outputs against
//! a benchmark-driven pass over the same inputs. With `--trace 1` it
//! instead times calls into each layer from this file and `layers.rs`.

use crate::layers::{exact_quantile, DeviceReplay, Span, Spans};
use reqblock_core::ReqBlockConfig;
use reqblock_experiments::extensions::{fleet_device_config, fleet_mix, fleet_service_gap_ns};
use reqblock_experiments::scenario::{self, AxisValues, ScenarioOutcome, ScenarioPlan};
use reqblock_experiments::Opts;
use reqblock_flash::{FaultStats, OpCounters, SsdConfig};
use reqblock_obs::Histogram;
use reqblock_sim::{
    device_stream, run_fleet, run_fleet_reference, run_source, run_task_pool, ArrivalProcess,
    CacheSizeMb, DeviceSummary, FleetConfig, FleetControl, FleetMetrics, Metrics, PolicyKind,
    RunResult, SimConfig, Ssd, Task, TenantMix, TenantStats, TraceSource,
};
use reqblock_trace::{msr, profiles, shared, Request, SyntheticTrace, WorkloadProfile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Worker threads of the multi-threaded workloads (the benchmark host's
/// `nproc`); `gc_write` and `read_hot` are single-threaded.
pub const POOL_THREADS: usize = 2;

/// Timed replays per run at the least, however long `--seconds` is.
const MIN_REPLAYS: usize = 3;

/// `proj_0` scale of `gc_write`.
const GC_WRITE_SCALE: f64 = 0.2;
/// `hm_1` scale of `read_hot` (1.0 = the paper's full request count).
const READ_HOT_SCALE: f64 = 1.0;
/// Tenant-profile scale of `fleet_mixed`.
const FLEET_SCALE: f64 = 0.1;
/// Devices in `fleet_mixed`.
const FLEET_DEVICES: usize = 8;
/// `fleet_mixed` offers the X8 tenant rates divided by this factor. At the
/// shipped rates the fleet's backlog grows with run length, so simulated
/// latency would measure the run length rather than the design.
const FLEET_DERATE: u64 = 768;
/// A device's last completion may trail its last arrival by at most this
/// much; a longer drain means the backlog grew during the run.
const FLEET_BACKLOG_LIMIT_NS: u64 = 50_000_000;
/// Trace scale of `paper_grid`.
const GRID_SCALE: f64 = 0.03;

/// What a run was asked to do.
pub struct Ctx {
    /// Workload seed (0 = the profiles' shipped seeds).
    pub seed: u64,
    /// Length of the timed window, host seconds.
    pub seconds: f64,
    /// `--trace 1`: per-layer run instead of end-to-end.
    pub traced: bool,
    /// Clock-read cost subtracted from every span, ns.
    pub timer_ns: u64,
    /// Scratch directory for generated trace files.
    pub work_dir: PathBuf,
}

/// One metric, printed by name with its unit.
pub struct Metric {
    /// Metric name as declared in BENCHMARK.json.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Simulated requests submitted.
    pub attempted: u64,
    /// Requests (and rejected or uncorrectable pages) that failed.
    pub failed: u64,
    /// Output checks: name and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Extra human-readable lines (sample counts, drain gaps).
    pub notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Run one replay of `requests` simulated requests, catching a panic:
    /// a panicking replay counts every request as failed and ends the
    /// workload with an error.
    fn replay<T>(&mut self, requests: u64, f: impl FnOnce() -> T) -> Result<T, String> {
        self.attempted += requests;
        catch_unwind(AssertUnwindSafe(f)).map_err(|_| {
            self.failed += requests;
            "a replay panicked".to_string()
        })
    }

    fn count_faults(&mut self, faults: &FaultStats) {
        self.failed += faults.rejected_write_pages + faults.read_uncorrectable;
    }
}

/// Derive a seed from a shipped one; seed 0 keeps the shipped inputs.
fn reseed(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        splitmix64(base ^ splitmix64(seed))
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn reseeded(mut profile: WorkloadProfile, seed: u64) -> WorkloadProfile {
    profile.seed = reseed(profile.seed, seed);
    profile
}

fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Run `unit` back to back until `seconds` have passed and at least
/// [`MIN_REPLAYS`] ran; returns the per-unit values.
fn repeat_for(
    seconds: f64,
    mut unit: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds {
        out.push(unit(out.len())?);
    }
    Ok(out)
}

/// Host-time samples of one `--trace 0` run.
#[derive(Default)]
struct Timed {
    /// Seconds of every set-up.
    setups: Vec<f64>,
    /// Requests per second of every timed replay.
    rates: Vec<f64>,
    /// Seconds of [`reference_loop`], run before every unit.
    reference: Vec<f64>,
}

/// Seconds [`reference_loop`] takes on the host the host-time end-to-end
/// metrics are scaled to.
const REFERENCE_NOMINAL_S: f64 = 0.004;

/// A fixed compute loop that shares no code with the program, shaped like
/// trace synthesis (seeded xorshift draws, a logarithm per draw, a vector
/// fill). On a shared host the CPU speed available to one process drifts
/// by tens of percent over minutes, and the replays and set-ups drift with
/// it; timing this loop between units measures that drift so
/// [`end_to_end`] can take it out.
fn reference_loop() -> f64 {
    const DRAWS: usize = 200_000;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut out = Vec::with_capacity(DRAWS);
    for _ in 0..DRAWS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        out.push((-u.ln() * 1e6) as u64);
    }
    std::hint::black_box(&out);
    t0.elapsed().as_secs_f64()
}

/// The `--trace 0` loop: every unit times [`reference_loop`], sets the
/// workload up afresh (timed as set-up, the previous fixture dropped
/// first) and then replays it once, so the reference, set-up and replay
/// samples span the same stretch of host time. Returns the samples and
/// the last fixture.
fn setup_and_replay<F>(
    seconds: f64,
    mut set_up: impl FnMut() -> Result<F, String>,
    mut replay: impl FnMut(&mut F) -> Result<f64, String>,
) -> Result<(Timed, F), String> {
    let (mut setups, mut reference, mut fixture) = (Vec::new(), Vec::new(), None);
    let rates = repeat_for(seconds, |_| {
        drop(fixture.take());
        shared::clear();
        reference.push(reference_loop());
        let t0 = Instant::now();
        let f = set_up()?;
        setups.push(t0.elapsed().as_secs_f64());
        replay(fixture.insert(f))
    })?;
    Ok((Timed { setups, rates, reference }, fixture.expect("at least one unit")))
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated totals over every device or job of one verified pass.
#[derive(Default)]
struct SimTotals {
    requests: u64,
    total_response_ns: u128,
    pages: u64,
    hits: u64,
    evictions: u64,
    evicted_pages: u64,
    flush_stalls: u64,
    flash: OpCounters,
    gc_busy_ns: u128,
    wait_ns: u128,
    max_outstanding: usize,
    responses: Vec<u64>,
}

impl SimTotals {
    fn add(&mut self, m: &Metrics, flash: &OpCounters) {
        self.requests += m.requests;
        self.total_response_ns += m.total_response_ns;
        self.pages += m.read_pages + m.write_pages;
        self.hits += m.read_hits + m.write_hits;
        self.evictions += m.evictions;
        self.evicted_pages += m.evicted_pages;
        self.flush_stalls += m.flush_stalls;
        self.flash.user_reads += flash.user_reads;
        self.flash.user_programs += flash.user_programs;
        self.flash.gc_reads += flash.gc_reads;
        self.flash.gc_programs += flash.gc_programs;
        self.flash.erases += flash.erases;
    }

    fn add_job(&mut self, job: &mut JobOut) {
        self.add(&job.metrics, &job.flash);
        self.gc_busy_ns += job.gc_busy_ns;
        self.wait_ns += job.wait_ns;
        self.max_outstanding = self.max_outstanding.max(job.max_outstanding);
        self.responses.append(&mut job.responses);
    }

    fn hit_ratio(&self) -> f64 {
        ratio(self.hits as f64, self.pages as f64)
    }

    fn write_amp(&self) -> f64 {
        ratio(self.flash.total_programs() as f64, self.flash.user_programs as f64)
    }
}

/// The `--trace 0` metrics: host throughput, set-up, memory and the
/// simulated results of the paper's figures.
///
/// `req_per_s` and `setup_s` are host time scaled to a host on which
/// [`reference_loop`] takes [`REFERENCE_NOMINAL_S`]: the medians are
/// multiplied (set-up divided) by the run's median reference time over
/// the nominal one. The raw medians are printed alongside.
fn end_to_end(report: &mut Report, timed: &Timed, peak_bytes: usize, totals: &mut SimTotals) {
    let (rate, setup) = (median(&timed.rates), median(&timed.setups));
    let host_slowdown = median(&timed.reference) / REFERENCE_NOMINAL_S;
    report.metric("req_per_s", rate * host_slowdown, "1/s");
    report.metric("setup_s", setup / host_slowdown, "s");
    report.metric("peak_mib", peak_bytes as f64 / (1024.0 * 1024.0), "MiB");
    report.metric(
        "sim_resp_mean_us",
        ratio(totals.total_response_ns as f64, totals.requests as f64) / 1e3,
        "sim_us",
    );
    let samples = totals.responses.len();
    report.metric(
        "sim_resp_p99_us",
        exact_quantile(&mut totals.responses, 0.99) as f64 / 1e3,
        "sim_us",
    );
    report.notes.push(format!("sim_resp_p99_us is exact over {samples} per-request samples"));
    report.metric("sim_hit_ratio", totals.hit_ratio(), "ratio");
    report.metric("sim_flash_writes", totals.flash.user_programs as f64, "count");
    report.metric("sim_write_amp", totals.write_amp(), "ratio");
    report.notes.push(format!(
        "raw host medians: req_per_s {rate:.0}, setup_s {setup:.6}; host slowdown {host_slowdown:.4} \
         (reference loop {:.6} s vs nominal {REFERENCE_NOMINAL_S} s)",
        median(&timed.reference)
    ));
    report.notes.push(format!(
        "timed replays {}, raw req_per_s spread {:.0}..{:.0}",
        timed.rates.len(),
        timed.rates.iter().copied().fold(f64::INFINITY, f64::min),
        timed.rates.iter().copied().fold(0.0, f64::max)
    ));
}

/// Layer figures a workload did not exercise stay 0.
#[derive(Default)]
struct Extra {
    arrival_ns_per_req: f64,
    merge_ns_per_req: f64,
    reset_ms: f64,
    plan_ms: f64,
    job_s_max: f64,
    job_s_sum: f64,
    idle_frac: f64,
    /// Job time per request of each of [`POLICIES`].
    policy_ns: [f64; 4],
}

/// Policies whose per-request job time the traced `paper_grid` reports.
const POLICIES: [&str; 4] = ["LRU", "BPLRU", "VBBMS", "Req-block"];

/// The `--trace 1` metrics.
fn per_layer(
    report: &mut Report,
    gen_ns_per_req: f64,
    device: &Spans,
    submit: &mut Spans,
    totals: &SimTotals,
    extra: &Extra,
    overhead: f64,
) {
    let r = report;
    r.metric("trace.gen_ns_per_req", gen_ns_per_req, "ns");
    r.metric("cache.write_ns", device.mean_ns(Span::BufferWrite), "ns");
    r.metric("cache.read_ns", device.mean_ns(Span::BufferRead), "ns");
    r.metric("cache.hit_ratio", totals.hit_ratio(), "ratio");
    r.metric("cache.evictions", totals.evictions as f64, "count");
    r.metric(
        "cache.pages_per_eviction",
        ratio(totals.evicted_pages as f64, totals.evictions as f64),
        "pages",
    );
    let flush = device.get(Span::Flush);
    r.metric("ftl.flush_ns", device.mean_ns(Span::Flush), "ns");
    r.metric(
        "ftl.flush_ns_per_page",
        ratio(flush.total_ns as f64, totals.evicted_pages as f64),
        "ns",
    );
    r.metric("ftl.read_ns", device.mean_ns(Span::FlashRead), "ns");
    r.metric("ftl.gc_programs", totals.flash.gc_programs as f64, "count");
    r.metric("ftl.erases", totals.flash.erases as f64, "count");
    r.metric("ftl.gc_busy_ms", totals.gc_busy_ns as f64 / 1e6, "sim_ms");
    r.metric("flash.wait_ms", totals.wait_ns as f64 / 1e6, "sim_ms");
    let submit_mean = submit.mean_ns(Span::Submit);
    let samples = submit.submit_ns.len();
    r.metric("host.submit_ns", submit_mean, "ns");
    r.metric("host.submit_ns_p99", exact_quantile(&mut submit.submit_ns, 0.99) as f64, "ns");
    r.notes.push(format!("host.submit_ns_p99 is exact over {samples} submit spans"));
    let device_ns: u128 = [Span::BufferWrite, Span::BufferRead, Span::Flush, Span::FlashRead]
        .iter()
        .map(|&s| device.get(s).total_ns)
        .sum();
    let per_req = ratio(device_ns as f64, totals.requests as f64);
    r.metric(
        "engine.self_ns_per_req",
        if samples == 0 { 0.0 } else { submit_mean - per_req },
        "ns",
    );
    r.metric(
        "host.flush_stall_frac",
        ratio(totals.flush_stalls as f64, totals.evictions as f64),
        "ratio",
    );
    r.metric("host.max_outstanding", totals.max_outstanding as f64, "count");
    r.metric("load.arrival_ns_per_req", extra.arrival_ns_per_req, "ns");
    r.metric("fleet.merge_ns_per_req", extra.merge_ns_per_req, "ns");
    r.metric("fleet.reset_ms", extra.reset_ms, "ms");
    r.metric("scenario.plan_ms", extra.plan_ms, "ms");
    r.metric("pool.job_s_max", extra.job_s_max, "s");
    r.metric("pool.job_s_sum", extra.job_s_sum, "s");
    r.metric("pool.idle_frac", extra.idle_frac, "ratio");
    for (policy, ns) in POLICIES.iter().zip(extra.policy_ns) {
        r.metric(&format!("policy.{policy}.ns_per_req"), ns, "ns");
    }
    r.metric("traced_overhead_frac", overhead, "ratio");
    let share = |s: Span| ratio(device.get(s).total_ns as f64 * 100.0, device_ns as f64);
    r.notes.push(format!(
        "share of timed device-call time: Device::flush {:.1}%, Device::flash_read {:.1}%, buffer {:.1}%",
        share(Span::Flush),
        share(Span::FlashRead),
        share(Span::BufferWrite) + share(Span::BufferRead)
    ));
}

/// Interleave untraced and traced runs of one pass (alternating which
/// goes first) until `seconds` have passed; returns the tracing overhead
/// as the ratio of median wall-clock times minus one.
fn overhead_pairs(
    report: &mut Report,
    seconds: f64,
    mut pass: impl FnMut(&mut Report, bool) -> Result<f64, String>,
) -> Result<f64, String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    repeat_for(seconds, |i| {
        for on in [i % 2 == 1, i % 2 == 0] {
            let dt = pass(report, on)?;
            if on { &mut traced } else { &mut plain }.push(dt);
        }
        Ok(0.0)
    })?;
    Ok(median(&traced) / median(&plain) - 1.0)
}

// ---------------------------------------------------------------------
// One replay of one device, driven by the benchmark
// ---------------------------------------------------------------------

/// Everything a benchmark-driven replay of one device or job yields.
#[derive(Clone)]
struct JobOut {
    metrics: Metrics,
    flash: OpCounters,
    faults: FaultStats,
    responses: Vec<u64>,
    gc_busy_ns: u128,
    wait_ns: u128,
    max_outstanding: usize,
    /// The device's completion horizon minus its last arrival, ns.
    drain_ns: u64,
}

impl JobOut {
    fn of_ssd(ssd: &Ssd, responses: Vec<u64>, last_arrival: u64) -> Self {
        let dev = ssd.device();
        JobOut {
            metrics: ssd.metrics().clone(),
            flash: *ssd.flash_counters(),
            faults: *ssd.fault_stats(),
            responses,
            gc_busy_ns: dev.ftl_obs().gc_busy_ns,
            wait_ns: dev.busy().wait_ns,
            max_outstanding: ssd.window().max_outstanding(),
            drain_ns: dev.completion_horizon_ns().saturating_sub(last_arrival),
        }
    }

    fn same_sim(&self, other: &JobOut) -> bool {
        self.metrics == other.metrics && self.flash == other.flash && self.faults == other.faults
    }
}

/// Submit `requests` to `ssd` one by one through `Ssd::submit`.
fn submit_all(ssd: &mut Ssd, requests: &[Request], spans: &mut Spans) -> JobOut {
    let mut responses = Vec::with_capacity(requests.len());
    for req in requests {
        responses.push(spans.time(Span::Submit, || ssd.submit(req)));
    }
    let last = requests.iter().map(|r| r.time_ns).max().unwrap_or(0);
    JobOut::of_ssd(ssd, responses, last)
}

/// Replay `requests` through a [`DeviceReplay`] with every device call
/// timed into `spans`.
fn drive_device(cfg: &SimConfig, requests: &[Request], spans: &mut Spans) -> JobOut {
    let mut drv = DeviceReplay::new(cfg);
    let mut responses = Vec::with_capacity(requests.len());
    for req in requests {
        responses.push(drv.submit(req, spans));
    }
    let dev = drv.device();
    JobOut {
        metrics: drv.metrics().clone(),
        flash: *dev.flash_counters(),
        faults: *dev.fault_stats(),
        responses,
        gc_busy_ns: dev.ftl_obs().gc_busy_ns,
        wait_ns: dev.busy().wait_ns,
        max_outstanding: 0,
        drain_ns: 0,
    }
}

fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.metrics == b.metrics && a.flash == b.flash && a.faults == b.faults
}

// ---------------------------------------------------------------------
// gc_write / read_hot: one device, synchronous
// ---------------------------------------------------------------------

/// The single-device workloads.
#[derive(Clone, Copy)]
pub enum Single {
    /// proj_0 on a two-chip device at ~115% of its footprint.
    GcWrite,
    /// hm_1 on the paper's 128 GB device.
    ReadHot,
}

/// The `pressured_ssd` geometry of the experiments crate: a two-chip
/// device sized to ~115% of the workload's write footprint, so the
/// append stream cycles the free-block pool and GC runs.
fn pressured_ssd(profile: &WorkloadProfile) -> SsdConfig {
    let mut ssd = SsdConfig::paper();
    ssd.channels = 2;
    ssd.chips_per_channel = 1;
    let block_pages = ssd.total_chips() as u64 * ssd.pages_per_block as u64;
    let footprint = profile.streaming_pages + profile.cold_read_extra_pages;
    let want_pages = (footprint as f64 * 1.15) as u64;
    ssd.capacity_bytes = want_pages.div_ceil(block_pages).max(8) * block_pages * ssd.page_size;
    ssd
}

fn single_spec(which: Single, seed: u64) -> (WorkloadProfile, SimConfig) {
    let req_block = PolicyKind::ReqBlock(ReqBlockConfig::paper());
    let mut cfg = SimConfig::paper(CacheSizeMb::Mb16, req_block);
    match which {
        Single::GcWrite => {
            let profile = reseeded(profiles::proj_0().scaled(GC_WRITE_SCALE), seed);
            cfg.ssd = pressured_ssd(&profile);
            (profile, cfg)
        }
        Single::ReadHot => (reseeded(profiles::hm_1().scaled(READ_HOT_SCALE), seed), cfg),
    }
}

/// Run `gc_write` or `read_hot`.
pub fn single(
    ctx: &Ctx,
    which: Single,
    alloc: &dyn Fn(bool) -> usize,
    report: &mut Report,
) -> Result<(), String> {
    let (profile, cfg) = single_spec(which, ctx.seed);
    let source = TraceSource::Synthetic(profile);
    // Set-up: trace synthesis into the shared trace cache, then device
    // construction. The last set-up's device serves the checked pass.
    let set_up = || {
        let t0 = Instant::now();
        let requests = source.shared_requests();
        let gen_s = t0.elapsed().as_secs_f64();
        Ok((requests, Ssd::new(cfg.clone()), gen_s))
    };
    alloc(true);
    if !ctx.traced {
        let mut first: Option<RunResult> = None;
        let (timed, (requests, mut ssd, _)) = setup_and_replay(ctx.seconds, set_up, |f| {
            let n = f.0.len() as u64;
            let t0 = Instant::now();
            let r = report.replay(n, || run_source(&cfg, &source))?;
            let dt = t0.elapsed().as_secs_f64();
            report.count_faults(&r.faults);
            let rate = r.metrics.requests as f64 / dt;
            match &first {
                Some(f) => report.check("replays repeat exactly", same_result(f, &r)),
                None => first = Some(r),
            }
            Ok(rate)
        })?;
        let peak = alloc(false);
        let e2e = first.expect("at least one replay");
        let n = requests.len() as u64;
        let mut out = report.replay(n, || submit_all(&mut ssd, &requests, &mut Spans::off()))?;
        report.check(
            "Ssd::submit pass equals run_source",
            out.metrics == e2e.metrics && out.flash == e2e.flash,
        );
        let mut totals = SimTotals::default();
        totals.add_job(&mut out);
        end_to_end(report, &timed, peak, &mut totals);
        return Ok(());
    }

    shared::clear();
    let (requests, _, gen_s) = set_up()?;
    let n = requests.len() as u64;
    let e2e = report.replay(n, || run_source(&cfg, &source))?;
    report.count_faults(&e2e.faults);
    let mut submit_spans = Spans::on(ctx.timer_ns);
    let overhead = overhead_pairs(report, ctx.seconds, |report, on| {
        let mut spans = if on { Spans::on(ctx.timer_ns) } else { Spans::off() };
        let t0 = Instant::now();
        let out = report.replay(n, || {
            let mut ssd = Ssd::new(cfg.clone());
            submit_all(&mut ssd, &requests, &mut spans)
        })?;
        let dt = t0.elapsed().as_secs_f64();
        report.check("Ssd::submit pass equals run_source", out.metrics == e2e.metrics);
        if on {
            submit_spans.merge(spans);
        }
        Ok(dt)
    })?;
    let mut device_spans = Spans::on(ctx.timer_ns);
    let mut out = report.replay(n, || drive_device(&cfg, &requests, &mut device_spans))?;
    report.check(
        "traced Device pass equals run_source (Metrics and flash OpCounters)",
        out.metrics == e2e.metrics && out.flash == e2e.flash,
    );
    let mut totals = SimTotals::default();
    totals.add_job(&mut out);
    let gen = gen_s * 1e9 / n as f64;
    per_layer(report, gen, &device_spans, &mut submit_spans, &totals, &Extra::default(), overhead);
    Ok(())
}

// ---------------------------------------------------------------------
// fleet_mixed: eight queued devices under the X8 tenant mix
// ---------------------------------------------------------------------

struct Fleet {
    cfg: FleetConfig,
    mix: TenantMix,
    requests: u64,
    /// Pooled simulators for the benchmark-driven pass, one per worker.
    pool: Mutex<Vec<Ssd>>,
}

fn fleet_setup(seed: u64) -> (Fleet, f64) {
    let opts = Opts { scale: FLEET_SCALE, threads: POOL_THREADS, ..Opts::default() };
    let service_gap_ns = fleet_service_gap_ns(&opts);
    let mut mix = fleet_mix(&opts, service_gap_ns, FLEET_DEVICES);
    let mut gen_s = 0.0;
    let mut requests = 0;
    for t in &mut mix.tenants {
        t.profile.seed = reseed(t.profile.seed, seed);
        t.seed = reseed(t.seed, seed);
        match &mut t.process {
            ArrivalProcess::Poisson { mean_interarrival_ns }
            | ArrivalProcess::Bursty { mean_interarrival_ns, .. } => {
                *mean_interarrival_ns *= FLEET_DERATE
            }
        }
        let t0 = Instant::now();
        requests += shared::synthetic(&t.profile).len() as u64;
        gen_s += t0.elapsed().as_secs_f64();
    }
    let device = fleet_device_config();
    let pool = (0..POOL_THREADS).map(|_| Ssd::new(device.clone())).collect();
    let cfg = FleetConfig::uniform(FLEET_DEVICES, device);
    (Fleet { cfg, mix, requests, pool: Mutex::new(pool) }, gen_s * 1e9 / requests as f64)
}

/// Per-device results of one benchmark-driven fleet pass.
struct FleetPass {
    devices: Vec<JobOut>,
    /// Per device, the tenant of each submitted request.
    tenants: Vec<Vec<u32>>,
    spans: Spans,
}

/// Replay every device of the fleet the way `run_fleet` does — pooled
/// simulators reset in place, input from the public `device_stream` —
/// with the reset, merge and submit calls optionally timed.
fn fleet_pass(fleet: &Fleet, spans_on: bool, timer_ns: u64) -> FleetPass {
    let devices = fleet.cfg.device_count();
    let slots: Vec<OnceLock<(JobOut, Vec<u32>, Spans)>> =
        (0..devices).map(|_| OnceLock::new()).collect();
    let tasks = fleet
        .cfg
        .devices
        .iter()
        .zip(&slots)
        .enumerate()
        .map(|(idx, (dev_cfg, slot))| {
            Task::new(format!("device{idx}"), move || {
                let mut spans = if spans_on { Spans::on(timer_ns) } else { Spans::off() };
                let pooled = fleet.pool.lock().expect("pool lock poisoned by a panic").pop();
                let mut ssd = pooled.expect("one pooled simulator per worker");
                spans.time(Span::Reset, || ssd.reset(dev_cfg.clone()));
                let mut stream = device_stream(&fleet.mix, fleet.cfg.placement, devices, idx, None);
                let (mut responses, mut tenants, mut last) = (Vec::new(), Vec::new(), 0);
                while let Some((req, tenant)) = spans.time(Span::Merge, || stream.next()) {
                    responses.push(spans.time(Span::Submit, || ssd.submit(&req)));
                    tenants.push(tenant);
                    last = last.max(req.time_ns);
                }
                let out = JobOut::of_ssd(&ssd, responses, last);
                fleet.pool.lock().expect("pool lock poisoned by a panic").push(ssd);
                let _ = slot.set((out, tenants, spans));
            })
        })
        .collect();
    run_task_pool(tasks, POOL_THREADS);
    let mut spans = if spans_on { Spans::on(timer_ns) } else { Spans::off() };
    let (mut devices, mut tenants) = (Vec::new(), Vec::new());
    for slot in slots {
        let (out, tags, sp) = slot.into_inner().expect("every device ran");
        devices.push(out);
        tenants.push(tags);
        spans.merge(sp);
    }
    FleetPass { devices, tenants, spans }
}

/// The benchmark-driven pass's `FleetMetrics`, rebuilt the way
/// `run_fleet` aggregates: tenant order, then device order.
fn fleet_metrics(fleet: &Fleet, pass: &FleetPass) -> FleetMetrics {
    let mut per_tenant: Vec<TenantStats> = fleet
        .mix
        .tenants
        .iter()
        .map(|t| TenantStats { name: t.name.clone(), requests: 0, hist: Histogram::latency() })
        .collect();
    let mut all_hist = Histogram::latency();
    let mut per_device = Vec::new();
    for (out, tenants) in pass.devices.iter().zip(&pass.tenants) {
        let mut all = Histogram::latency();
        for (&resp, &tenant) in out.responses.iter().zip(tenants) {
            let t = &mut per_tenant[tenant as usize];
            t.hist.record(resp);
            t.requests += 1;
            all.record(resp);
        }
        all_hist.merge(&all);
        per_device.push(DeviceSummary {
            requests: all.count(),
            p99_ns: all.quantile_upper(0.99).unwrap_or(0),
        });
    }
    FleetMetrics { per_tenant, fleet: all_hist, per_device }
}

fn fleet_requests(m: &FleetMetrics) -> u64 {
    m.per_tenant.iter().map(|t| t.requests).sum()
}

/// Run `fleet_mixed`.
pub fn fleet(ctx: &Ctx, alloc: &dyn Fn(bool) -> usize, report: &mut Report) -> Result<(), String> {
    let ctl = FleetControl::threads(POOL_THREADS);
    alloc(true);
    // Set-up: fleet rate calibration (a replay of its own), tenant trace
    // synthesis, and one pooled simulator per worker.
    let set_up = || Ok(fleet_setup(ctx.seed));
    let mut first: Option<FleetMetrics> = None;
    let mut run_e2e = |report: &mut Report, fleet: &Fleet| -> Result<f64, String> {
        let t0 = Instant::now();
        let r = report.replay(fleet.requests, || run_fleet(&fleet.cfg, &fleet.mix, &ctl))?;
        let dt = t0.elapsed().as_secs_f64();
        let rate = fleet_requests(&r.metrics) as f64 / dt;
        match &first {
            Some(f) => report.check("fleet runs repeat exactly", *f == r.metrics),
            None => first = Some(r.metrics),
        }
        Ok(rate)
    };
    let (timed, (fleet, gen_ns_per_req)) = if ctx.traced {
        shared::clear();
        let fixture = set_up()?;
        run_e2e(report, &fixture.0)?;
        (Timed::default(), fixture)
    } else {
        setup_and_replay(ctx.seconds, set_up, |f| run_e2e(report, &f.0))?
    };
    let peak = alloc(false);
    let e2e = first.expect("at least one fleet run");
    let n = fleet.requests;

    let check_pass = |report: &mut Report, pass: &FleetPass| {
        let rebuilt = fleet_metrics(&fleet, pass);
        report
            .check("benchmark-driven device pass equals run_fleet (FleetMetrics)", rebuilt == e2e);
        for out in &pass.devices {
            report.count_faults(&out.faults);
        }
        let worst = pass.devices.iter().map(|d| d.drain_ns).max().unwrap_or(0);
        report.check(
            format!("backlog bounded: last completion within {FLEET_BACKLOG_LIMIT_NS} ns of last arrival"),
            worst <= FLEET_BACKLOG_LIMIT_NS,
        );
        report.notes.push(format!("worst device drain after last arrival: {worst} ns"));
    };

    if !ctx.traced {
        let pass = report.replay(n, || fleet_pass(&fleet, false, 0))?;
        check_pass(report, &pass);
        let mut totals = SimTotals::default();
        for mut out in pass.devices {
            totals.add_job(&mut out);
        }
        end_to_end(report, &timed, peak, &mut totals);
        return Ok(());
    }

    let reference = report.replay(n, || run_fleet_reference(&fleet.cfg, &fleet.mix, &ctl))?;
    report.check("run_fleet_reference equals run_fleet", reference.metrics == e2e);

    let mut traced: Option<FleetPass> = None;
    let overhead = overhead_pairs(report, ctx.seconds, |report, on| {
        let t0 = Instant::now();
        let pass = report.replay(n, || fleet_pass(&fleet, on, ctx.timer_ns))?;
        let dt = t0.elapsed().as_secs_f64();
        check_pass(report, &pass);
        if on {
            match &mut traced {
                Some(t) => t.spans.merge(pass.spans),
                None => traced = Some(pass),
            }
        }
        Ok(dt)
    })?;
    let traced = traced.expect("at least one traced pass");
    let mut submit_spans = traced.spans.clone();

    // Device calls, timed per device over the same merged inputs.
    let mut device_spans = Spans::on(ctx.timer_ns);
    let mut totals = SimTotals::default();
    for (idx, (dev_cfg, submitted)) in fleet.cfg.devices.iter().zip(&traced.devices).enumerate() {
        let input: Vec<Request> =
            device_stream(&fleet.mix, fleet.cfg.placement, FLEET_DEVICES, idx, None)
                .map(|(r, _)| r)
                .collect();
        let mut out = report
            .replay(input.len() as u64, || drive_device(dev_cfg, &input, &mut device_spans))?;
        report.check(
            format!("device {idx}: traced Device pass equals Ssd::submit pass"),
            out.same_sim(submitted),
        );
        out.max_outstanding = submitted.max_outstanding;
        totals.add_job(&mut out);
    }

    // Arrival generation alone: each tenant's ArrivalIter, drained.
    let t0 = Instant::now();
    let mut arrivals = 0u64;
    for t in &fleet.mix.tenants {
        let sum = t.arrivals().fold(0u64, |acc, r| {
            arrivals += 1;
            acc.wrapping_add(r.time_ns)
        });
        std::hint::black_box(sum);
    }
    let arrival_ns_per_req = t0.elapsed().as_nanos() as f64 / arrivals as f64;

    let resets = submit_spans.get(Span::Reset);
    let extra = Extra {
        arrival_ns_per_req,
        merge_ns_per_req: submit_spans.mean_ns(Span::Merge),
        reset_ms: ratio(resets.total_ns as f64, resets.count as f64) / 1e6,
        ..Extra::default()
    };
    per_layer(report, gen_ns_per_req, &device_spans, &mut submit_spans, &totals, &extra, overhead);
    Ok(())
}

// ---------------------------------------------------------------------
// paper_grid: the committed comparison scenario on the task pool
// ---------------------------------------------------------------------

/// One comparison job, rebuilt from the scenario's axes.
struct GridJob {
    label: String,
    policy: &'static str,
    cfg: SimConfig,
    requests: Arc<[Request]>,
}

struct Grid {
    opts: Opts,
    scenario: scenario::Scenario,
    plan: Option<ScenarioPlan>,
    jobs: Vec<GridJob>,
    requests: u64,
}

fn axis_strs(sc: &scenario::Scenario, name: &str) -> Vec<String> {
    match sc.axis(name) {
        Some(AxisValues::Strs(v)) => v.clone(),
        _ => panic!("comparison scenario lacks the {name} axis"),
    }
}

fn grid_setup(ctx: &Ctx) -> Result<(Grid, f64, f64), String> {
    let sc = scenario::builtin("comparison").ok_or("no builtin comparison scenario")?;
    let traces = axis_strs(&sc, "trace");
    let caches: Vec<CacheSizeMb> = match sc.axis("cache_mb") {
        Some(AxisValues::Ints(v)) => v
            .iter()
            .map(|&mb| match mb {
                16 => CacheSizeMb::Mb16,
                32 => CacheSizeMb::Mb32,
                _ => CacheSizeMb::Mb64,
            })
            .collect(),
        _ => return Err("comparison scenario lacks the cache_mb axis".into()),
    };
    let policies: Vec<PolicyKind> = axis_strs(&sc, "policy")
        .iter()
        .map(|p| scenario::policy_by_name(p).ok_or(format!("unknown policy {p}")))
        .collect::<Result<_, _>>()?;
    // The program reads its traces as MSR files: the seeded synthetic
    // traces are written where `Opts::trace_dir` points.
    std::fs::create_dir_all(&ctx.work_dir).map_err(|e| e.to_string())?;
    let mut profiles = Vec::new();
    for t in &traces {
        let profile = profiles::paper_profiles()
            .into_iter()
            .find(|p| &p.name == t)
            .ok_or(format!("unknown trace {t}"))?;
        let profile = reseeded(profile.scaled(GRID_SCALE), ctx.seed);
        let reqs = SyntheticTrace::new(profile.clone()).generate_all();
        msr::write_file(&ctx.work_dir.join(format!("{t}.csv")), &reqs)
            .map_err(|e| e.to_string())?;
        profiles.push(profile);
    }
    let opts = Opts {
        scale: GRID_SCALE,
        threads: POOL_THREADS,
        out_dir: ctx.work_dir.clone(),
        trace_dir: Some(ctx.work_dir.clone()),
    };
    let t0 = Instant::now();
    let loaded: Vec<Arc<[Request]>> =
        profiles.iter().map(|p| opts.source_for(p).shared_requests()).collect();
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let plan = scenario::plan(&sc, &opts).map_err(|e| e.to_string())?;
    let plan_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut jobs = Vec::new();
    for (t, reqs) in traces.iter().zip(&loaded) {
        for &cache in &caches {
            for &policy in &policies {
                jobs.push(GridJob {
                    label: format!("{t}/{cache}/{}", policy.name()),
                    policy: policy.name(),
                    cfg: SimConfig::paper(cache, policy),
                    requests: reqs.clone(),
                });
            }
        }
    }
    let total: u64 = loaded.iter().map(|r| r.len() as u64).sum();
    let requests = total * (caches.len() * policies.len()) as u64;
    let gen_ns = gen_s * 1e9 / total as f64;
    Ok((Grid { opts, scenario: sc, plan: Some(plan), jobs, requests }, gen_ns, plan_ms))
}

impl Grid {
    /// The set-up's plan for the first pass, a fresh one afterwards (a
    /// plan is consumed by its pass).
    fn take_plan(&mut self) -> Result<ScenarioPlan, String> {
        match self.plan.take() {
            Some(p) => Ok(p),
            None => scenario::plan(&self.scenario, &self.opts).map_err(|e| e.to_string()),
        }
    }
}

/// One pool pass over a plan; with `job_ns` set, every task's work is
/// wrapped to record its wall-clock time. Returns the pass's wall-clock
/// seconds, its rendered outcome, and whether the plan's tasks are
/// `jobs`, in order (the per-job figures rely on that order).
fn pool_pass(
    plan: ScenarioPlan,
    jobs: &[GridJob],
    job_ns: Option<&[AtomicU64]>,
) -> (f64, ScenarioOutcome, bool) {
    let tasks = plan.tasks();
    let same_jobs =
        tasks.len() == jobs.len() && tasks.iter().zip(jobs).all(|(t, j)| t.label == j.label);
    let tasks = match job_ns {
        None => tasks,
        Some(slots) => tasks
            .into_iter()
            .zip(slots)
            .map(|(task, slot)| {
                let work = task.work;
                Task::new(task.label, move || {
                    let t0 = Instant::now();
                    work();
                    slot.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                })
            })
            .collect(),
    };
    let t0 = Instant::now();
    run_task_pool(tasks, POOL_THREADS);
    let dt = t0.elapsed().as_secs_f64();
    (dt, plan.finish(), same_jobs)
}

fn section<'a>(outcome: &'a ScenarioOutcome, name: &str) -> Option<&'a [Vec<String>]> {
    let (_, tables) = outcome.sections.iter().find(|(n, _)| n == name)?;
    Some(&tables.first()?.rows)
}

/// Check the program's Fig. 8, Fig. 9 and perf tables against the
/// benchmark-driven per-job pass: every job label and request count, and
/// every absolute and normalized response and hit-ratio cell.
fn check_tables(outcome: &ScenarioOutcome, grid: &Grid, outs: &[JobOut]) -> bool {
    let find = |label: &str| grid.jobs.iter().position(|j| j.label == label).map(|i| &outs[i]);
    let perf_ok = section(outcome, "perf").is_some_and(|rows| {
        rows.len() == grid.jobs.len()
            && rows
                .iter()
                .all(|row| find(&row[0]).is_some_and(|o| row[1] == o.metrics.requests.to_string()))
    });
    let fig_ok = |name: &str, value: fn(&JobOut) -> f64, base: &str| {
        section(outcome, name).is_some_and(|rows| {
            rows.iter().all(|row| {
                let (trace, cache) = (&row[0], &row[1]);
                let get = |p: &str| find(&format!("{trace}/{cache}/{p}")).map(value);
                let Some(b) = get(base) else { return false };
                let cells = POLICIES
                    .iter()
                    .map(|p| get(p).map(|v| format!("{:.3}", v / b.max(f64::MIN_POSITIVE))));
                cells.zip(&row[2..]).all(|(c, cell)| c.as_ref() == Some(cell))
                    && row.last() == Some(&format!("{b:.3}"))
            })
        })
    };
    perf_ok
        && fig_ok("fig8", |o| o.metrics.avg_response_ms(), "LRU")
        && fig_ok("fig9", |o| o.metrics.hit_ratio(), "Req-block")
}

/// Replay every grid job through the benchmark on the pool, with
/// `Ssd::submit` (and, when traced, a timed Device pass as well).
fn grid_jobs_pass(grid: &Grid, traced: bool, timer_ns: u64) -> (Vec<JobOut>, Spans, Spans, bool) {
    let slots: Vec<OnceLock<(JobOut, Spans, Spans, bool)>> =
        grid.jobs.iter().map(|_| OnceLock::new()).collect();
    let tasks = grid
        .jobs
        .iter()
        .zip(&slots)
        .map(|(job, slot)| {
            Task::new(job.label.clone(), move || {
                let on = || if traced { Spans::on(timer_ns) } else { Spans::off() };
                let (mut submit_spans, mut device_spans) = (on(), on());
                let mut ssd = Ssd::new(job.cfg.clone());
                let out = submit_all(&mut ssd, &job.requests, &mut submit_spans);
                let same = !traced
                    || drive_device(&job.cfg, &job.requests, &mut device_spans).same_sim(&out);
                let _ = slot.set((out, submit_spans, device_spans, same));
            })
        })
        .collect();
    run_task_pool(tasks, POOL_THREADS);
    let (mut submit, mut device, mut same) = (Spans::on(timer_ns), Spans::on(timer_ns), true);
    let outs = slots
        .into_iter()
        .map(|s| {
            let (out, sub, dev, ok) = s.into_inner().expect("every job ran");
            submit.merge(sub);
            device.merge(dev);
            same &= ok;
            out
        })
        .collect();
    (outs, submit, device, same)
}

/// Run `paper_grid`.
pub fn grid(ctx: &Ctx, alloc: &dyn Fn(bool) -> usize, report: &mut Report) -> Result<(), String> {
    alloc(true);
    // Set-up: synthesize and write the six traces, load them into the
    // shared trace cache, and compile the scenario.
    let set_up = || grid_setup(ctx);

    let mut digests: Option<Vec<(String, u64)>> = None;
    let mut first_outcome = None;
    let mut check_digests = |report: &mut Report, outcome: ScenarioOutcome, what: &str| {
        let d = outcome.digests();
        match &digests {
            Some(base) => {
                report.check(format!("{what} section digests equal the first pass"), *base == d)
            }
            None => {
                digests = Some(d);
                first_outcome = Some(outcome);
            }
        }
    };

    if !ctx.traced {
        let (timed, (grid, _, _)) = setup_and_replay(ctx.seconds, set_up, |f| {
            let n = f.0.requests;
            let plan = f.0.take_plan()?;
            let (dt, outcome, same_jobs) = report.replay(n, || pool_pass(plan, &f.0.jobs, None))?;
            report.check("scenario plan holds the rebuilt comparison jobs, in order", same_jobs);
            check_digests(report, outcome, "unwrapped pool");
            Ok(n as f64 / dt)
        })?;
        let peak = alloc(false);
        let n = grid.requests;
        let (mut outs, _, _, _) = report.replay(n, || grid_jobs_pass(&grid, false, 0))?;
        let outcome = first_outcome.expect("at least one pool pass");
        report.check(
            "per-job Ssd::submit pass matches the Fig. 8, Fig. 9 and perf tables",
            check_tables(&outcome, &grid, &outs),
        );
        let mut totals = SimTotals::default();
        for out in &mut outs {
            report.count_faults(&out.faults);
            totals.add_job(out);
        }
        end_to_end(report, &timed, peak, &mut totals);
        return Ok(());
    }

    shared::clear();
    let (mut grid, gen_ns_per_req, plan_ms) = set_up()?;
    let n = grid.requests;
    let job_ns: Vec<AtomicU64> = grid.jobs.iter().map(|_| AtomicU64::new(0)).collect();
    let (mut job_sum_s, mut job_max_s, mut idle, mut wrapped_passes) = (0.0, 0.0f64, 0.0, 0);
    let mut policy_ns = [0u128; POLICIES.len()];
    let overhead = overhead_pairs(report, ctx.seconds, |report, on| {
        let plan = grid.take_plan()?;
        let wrap = if on { Some(&job_ns[..]) } else { None };
        let (dt, outcome, same_jobs) = report.replay(n, || pool_pass(plan, &grid.jobs, wrap))?;
        report.check("scenario plan holds the rebuilt comparison jobs, in order", same_jobs);
        check_digests(report, outcome, if on { "wrapped pool" } else { "unwrapped pool" });
        if on {
            let times: Vec<f64> =
                job_ns.iter().map(|t| t.load(Ordering::Relaxed) as f64 / 1e9).collect();
            let sum: f64 = times.iter().sum();
            job_sum_s += sum;
            job_max_s = job_max_s.max(times.iter().copied().fold(0.0, f64::max));
            idle += 1.0 - sum / (POOL_THREADS as f64 * dt);
            wrapped_passes += 1;
            for (job, t) in grid.jobs.iter().zip(&job_ns) {
                let i = POLICIES.iter().position(|p| *p == job.policy).expect("comparison policy");
                policy_ns[i] += t.load(Ordering::Relaxed) as u128;
            }
        }
        Ok(dt)
    })?;
    let (mut outs, mut submit_spans, device_spans, same) =
        report.replay(2 * n, || grid_jobs_pass(&grid, true, ctx.timer_ns))?;
    report.check("every job's traced Device pass equals its Ssd::submit pass", same);
    let outcome = first_outcome.expect("at least one pool pass");
    report.check(
        "per-job Ssd::submit pass matches the Fig. 8, Fig. 9 and perf tables",
        check_tables(&outcome, &grid, &outs),
    );
    let mut totals = SimTotals::default();
    for out in &mut outs {
        report.count_faults(&out.faults);
        totals.add_job(out);
    }
    let passes = wrapped_passes as f64;
    let per_policy_requests = n as f64 / POLICIES.len() as f64 * passes;
    let extra = Extra {
        plan_ms,
        job_s_max: job_max_s,
        job_s_sum: job_sum_s / passes,
        idle_frac: idle / passes,
        policy_ns: policy_ns.map(|ns| ns as f64 / per_policy_requests),
        ..Extra::default()
    };
    per_layer(report, gen_ns_per_req, &device_spans, &mut submit_spans, &totals, &extra, overhead);
    Ok(())
}
