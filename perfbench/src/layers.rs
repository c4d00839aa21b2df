//! Benchmark-side tracing: span aggregation around calls into the
//! simulator's public layer APIs, and a synchronous loop that replays
//! requests through a bare [`Device`] so each device call can be timed.
//!
//! Spans are aggregated in memory per name (count and total host time,
//! plus every `Ssd::submit` duration for an exact tail) and reported when
//! the run ends. Nothing here changes what the simulator computes: the
//! [`DeviceReplay`] reproduces `Engine::submit_recorded` under a no-op
//! recorder, and the workloads check that its `Metrics` and flash counters
//! equal the untraced run's.

use reqblock_cache::{Access, EvictionBatch};
use reqblock_sim::{Device, FlushWindow, Metrics, SimConfig};
use reqblock_trace::Request;
use std::time::Instant;

/// A timed boundary between the benchmark and one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `Device::buffer_write` (cache + core).
    BufferWrite,
    /// `Device::buffer_read` (cache + core).
    BufferRead,
    /// `Device::flush` of one eviction batch (FTL + flash).
    Flush,
    /// `Device::flash_read` of one read miss (FTL + flash).
    FlashRead,
    /// `Ssd::submit` of one request (engine + host + everything below).
    Submit,
    /// `DeviceStream::next` (fleet loser-tree merge over lazy arrivals).
    Merge,
    /// `Ssd::reset` of a pooled fleet device.
    Reset,
}

const SPANS: usize = 7;

/// Count and host time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Their summed duration, ns, clock-read cost subtracted.
    pub total_ns: u128,
}

/// In-memory span aggregates. Disabled instances run the closures
/// untimed, so the traced and untraced passes share one code path.
#[derive(Debug, Clone)]
pub struct Spans {
    enabled: bool,
    timer_ns: u64,
    aggs: [Agg; SPANS],
    /// Every `Ssd::submit` duration, ns (for the exact p99).
    pub submit_ns: Vec<u64>,
}

impl Spans {
    /// Aggregates that time nothing.
    pub fn off() -> Self {
        Self { enabled: false, timer_ns: 0, aggs: [Agg::default(); SPANS], submit_ns: Vec::new() }
    }

    /// Aggregates that time every span, subtracting `timer_ns` (the cost
    /// of one clock read, see [`timer_overhead_ns`]) from each duration.
    pub fn on(timer_ns: u64) -> Self {
        Self { enabled: true, timer_ns, ..Self::off() }
    }

    /// Run `f`, charging its duration to `span` when enabled.
    #[inline(always)]
    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(self.timer_ns);
        let agg = &mut self.aggs[span as usize];
        agg.count += 1;
        agg.total_ns += ns as u128;
        if span == Span::Submit {
            self.submit_ns.push(ns);
        }
        out
    }

    /// The aggregate of one span name.
    pub fn get(&self, span: Span) -> Agg {
        self.aggs[span as usize]
    }

    /// Mean duration of one span name, ns (0 when it never ran).
    pub fn mean_ns(&self, span: Span) -> f64 {
        let a = self.get(span);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64
        }
    }

    /// Fold another thread's aggregates into these.
    pub fn merge(&mut self, other: Spans) {
        for (a, b) in self.aggs.iter_mut().zip(other.aggs) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
        self.submit_ns.extend(other.submit_ns);
    }
}

/// The cost of one `Instant::now()` pair with nothing between them: the
/// median of many back-to-back reads. Subtracted from every span so short
/// calls are not dominated by the clock.
pub fn timer_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Exact nearest-rank quantile of `values` (sorts in place); 0 when empty.
pub fn exact_quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Replays requests through a bare [`Device`] the way the engine does for
/// an uninstrumented run (same `Access` stream, same flush/stall rules,
/// same `Metrics` accounting), timing each device call into [`Spans`].
pub struct DeviceReplay {
    device: Device,
    window: FlushWindow,
    metrics: Metrics,
    overhead_every: u64,
    next_overhead_sample: u64,
    logical_now: u64,
    req_counter: u64,
    evictions: Vec<EvictionBatch>,
}

impl DeviceReplay {
    /// A fresh device per `cfg`, with the host flush window of its submit
    /// mode.
    pub fn new(cfg: &SimConfig) -> Self {
        Self {
            device: Device::new(cfg),
            window: FlushWindow::new(cfg.submit),
            metrics: Metrics::default(),
            overhead_every: cfg.overhead_sample_every,
            next_overhead_sample: 0,
            logical_now: 0,
            req_counter: 0,
            evictions: Vec::with_capacity(4),
        }
    }

    /// The device under the replay.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Submit one request; returns its simulated response time, ns.
    pub fn submit(&mut self, req: &Request, spans: &mut Spans) -> u64 {
        let at = req.time_ns;
        let pages = req.page_count() as u32;
        let req_id = self.req_counter;
        self.req_counter += 1;
        self.metrics.requests += 1;
        self.window.retire_until(at);
        let dram_done = at + self.device.dram_access_ns();
        let write = req.is_write();
        if write {
            self.metrics.write_reqs += 1;
        } else {
            self.metrics.read_reqs += 1;
        }
        let mut done = at;
        let mut evictions = std::mem::take(&mut self.evictions);
        for lpn in req.lpns() {
            self.logical_now += 1;
            let a = Access { lpn, req_id, req_pages: pages, now: self.logical_now };
            if write {
                let hit =
                    spans.time(Span::BufferWrite, || self.device.buffer_write(&a, &mut evictions));
                self.metrics.write_pages += 1;
                self.metrics.write_hits += hit as u64;
                done = done.max(dram_done);
            } else {
                self.device.prefetch_read(lpn);
                let hit =
                    spans.time(Span::BufferRead, || self.device.buffer_read(&a, &mut evictions));
                self.metrics.read_pages += 1;
                if hit {
                    self.metrics.read_hits += 1;
                    done = done.max(dram_done);
                } else {
                    let c = spans.time(Span::FlashRead, || self.device.flash_read(lpn, at));
                    done = done.max(c.ready_ns);
                }
            }
            for batch in evictions.drain(..) {
                done = done.max(self.settle(&batch, at, spans));
                self.device.recycle(batch);
            }
        }
        self.evictions = evictions;
        let response = done - at;
        self.metrics.total_response_ns += response as u128;
        self.metrics.max_response_ns = self.metrics.max_response_ns.max(response);
        self.metrics.response_hist.record(response);
        if self.overhead_every > 0 && req_id >= self.next_overhead_sample {
            self.next_overhead_sample = req_id + self.overhead_every;
            self.metrics.overhead_samples += 1;
            self.metrics.metadata_bytes_sum += self.device.cache().metadata_bytes() as u128;
            self.metrics.node_count_sum += self.device.cache().node_count() as u128;
        }
        response
    }

    /// Flush one eviction batch and return when the request may proceed:
    /// synchronous hosts wait for the flush, queued hosts only when every
    /// window slot is busy.
    fn settle(&mut self, batch: &EvictionBatch, at: u64, spans: &mut Spans) -> u64 {
        if !batch.dirty {
            self.metrics.clean_dropped_pages += batch.lpns.len() as u64;
            return at;
        }
        self.metrics.evictions += 1;
        self.metrics.evicted_pages += batch.lpns.len() as u64;
        self.metrics.pad_read_pages += batch.pad_reads.len() as u64;
        let ready = spans.time(Span::Flush, || self.device.flush(batch, at)).ready_ns;
        let visible = if self.window.capacity() == 0 {
            ready
        } else {
            self.window.admit(ready).unwrap_or(at)
        };
        let stall = visible.saturating_sub(at);
        if stall > 0 {
            self.metrics.flush_stalls += 1;
            self.metrics.flush_stall_ns += stall as u128;
        }
        visible
    }
}
