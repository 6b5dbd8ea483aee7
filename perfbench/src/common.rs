//! Shared pieces of the workloads: seeded generators, the per-phase
//! recorders, the traced layer accumulator, and the metric tables.

use drx_mp::{kernel_stats, KernelStats, PoolStats};
use drx_pfs::Pfs;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// Turn any displayable library error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overwrite one chunk behind the surface's back after set-up; the
    /// oracle must then report failed reads.
    pub corrupt: bool,
}

impl Cfg {
    /// Length of the untraced phase. A traced run splits its time between
    /// an untraced and a traced phase so the tracing overhead is measured
    /// on the same set-up.
    pub fn phase_secs(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for a worker thread.
    pub fn fork(&mut self, salt: u64) -> Rng {
        Rng::new(self.next_u64() ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }
}

/// Positions along one axis that cover it evenly in any run length: the
/// golden-ratio sequence from a seeded start. A band's cost depends on
/// where it lands (how many growth segments of the `F*` layout it crosses,
/// how large the two-phase hull is: a `zones` band read takes 16 ms at some
/// columns and 70 ms at others), so with a few dozen uniform draws per run
/// the mean band cost would depend on the seed; swept positions give every
/// run the same mix.
pub struct Sweep(f64);

impl Sweep {
    pub fn new(rng: &mut Rng) -> Sweep {
        Sweep(rng.unit())
    }

    /// The next position in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = (self.0 + 0.618_033_988_749_894_9).fract();
        ((self.0 * n as f64) as usize).min(n - 1)
    }
}

/// Zipf-skewed choice among `n` items; the popularity order is a seeded
/// permutation so hot items are spread over the array.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, perm }
    }

    /// The most popular item.
    pub fn hottest(&self) -> usize {
        self.perm[0]
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let r = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[r]
    }
}

/// The three latency classes of the end-to-end metrics.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Region, zone, tile, band and window operations.
    Slab,
    /// 1-element get or set.
    Point,
    /// Extend plus the write of the new slice.
    Append,
}

/// One completed operation.
#[derive(Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// End time, seconds since the process-wide epoch.
    pub at: f64,
    pub secs: f64,
    pub read: u64,
    pub written: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// End-to-end record of one phase, per thread or rank; merged afterwards.
#[derive(Default, Clone)]
pub struct Recorder {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Sum of all surface-call times (the denominator of the trace ratios).
    pub op_s: f64,
}

impl Recorder {
    pub fn record(&mut self, kind: Kind, secs: f64, read: u64, written: u64, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.samples.push(Sample { kind, at: now(), secs, read, written });
        self.op_s += secs;
    }

    pub fn merge(&mut self, o: &Recorder) {
        self.samples.extend_from_slice(&o.samples);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.op_s += o.op_s;
    }

    /// Latencies of one class, in seconds.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        latencies(&self.samples, kind)
    }
}

fn latencies(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples.iter().filter(|s| s.kind == kind).map(|s| s.secs).collect()
}

/// User bytes moved ÷ time in the calls that moved them, in MiB/s.
fn throughput_mib_s(r: &Recorder, read: bool) -> f64 {
    let (bytes, secs) = r
        .samples
        .iter()
        .map(|x| if read { (x.read, x.secs) } else { (x.written, x.secs) })
        .filter(|&(b, _)| b > 0)
        .fold((0u64, 0.0), |(b, t), (xb, xt)| (b + xb, t + xt));
    ratio(bytes as f64 / (1u64 << 20) as f64, secs)
}

/// Completed operations ÷ the span from the first call's start to the
/// last call's end (all threads).
fn ops_per_s(r: &Recorder) -> f64 {
    let t0 = r.samples.iter().map(|s| s.at - s.secs).fold(f64::INFINITY, f64::min);
    let t1 = r.samples.iter().map(|s| s.at).fold(f64::NEG_INFINITY, f64::max);
    ratio(r.samples.len() as f64, t1 - t0)
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Build the workload state `n` times, dropping each before the next, and
/// keep the last; the median of the times is `setup_s`.
pub fn setup_n<S>(n: usize, mut f: impl FnMut() -> Res<S>) -> Res<(S, Vec<f64>)> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let (s, secs) = timed(&mut f);
        last = Some(s?);
        times.push(secs);
    }
    Ok((last.expect("n > 0"), times))
}

/// Set the calling thread's timer slack, which threads it spawns later
/// inherit; false where it cannot be set. The PFS emulates request latency
/// with a sleep, and under Linux's default 50 µs slack a 200 µs sleep ends
/// anywhere in 200–250 µs depending on which other timers of the host fire
/// nearby, so the emulated latency would follow unrelated activity.
pub fn set_timer_slack_ns(ns: u64) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
        // a per-thread scheduler setting.
        unsafe { prctl(PR_SET_TIMERSLACK, ns as std::ffi::c_ulong) == 0 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = ns;
        false
    }
}

/// Pin glibc malloc's thresholds, which otherwise adapt to the order in
/// which large buffers happen to be freed. When two threads free large
/// buffers in an order that differs from run to run, whether a buffer is
/// reused from the heap, copied on `realloc` or fresh `mmap` memory
/// differs too, and throughput with it. Pinned, every allocation of at
/// least `mmap_threshold` bytes is fresh `mmap` memory in every run and
/// the heap is never trimmed. Call before starting any thread. Returns
/// false where the allocator is not glibc's.
pub fn pin_allocator(mmap_threshold: i32) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only sets allocator tunables; it is called before
        // the workload starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, mmap_threshold) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = mmap_threshold;
        false
    }
}

/// Closed-loop phase clock.
pub struct Clock(Instant, f64);

impl Clock {
    pub fn start(secs: f64) -> Clock {
        Clock(Instant::now(), secs)
    }

    pub fn running(&self) -> bool {
        self.0.elapsed().as_secs_f64() < self.1
    }

    pub fn elapsed(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Per-layer sums of the traced phase: seconds under the layer names of
/// the per-layer metrics, and counts under `n.*` keys.
#[derive(Default, Clone)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Time `f` into layer `key`.
    pub fn time<R>(&mut self, key: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, s) = timed(f);
        self.add(key, s);
        r
    }

    pub fn merge(&mut self, o: &Layers) {
        for (k, v) in &o.sums {
            self.add(k, *v);
        }
    }
}

/// Layers whose times are self times; their sum is compared with the
/// surface time for `trace.unattributed_pct`. `server.handle` is the
/// parent of plan, lock, cache and copy, so it is not among them.
pub const SELF_TIMES: [&str; 15] = [
    "pfs.read",
    "pfs.write",
    "mp.alloc",
    "mp.kernel",
    "msg.read_all",
    "msg.write_all",
    "core.plan",
    "cache.read",
    "cache.flush",
    "lock.acquire",
    "server.copy",
    "server.extend",
    "proto.encode",
    "proto.decode",
    "tcp.socket",
];

/// Counter snapshot taken from public stats before and after the
/// untraced phase.
#[derive(Default, Clone, Copy)]
pub struct Snap {
    pub pfs_requests: u64,
    pub pfs_seeks: u64,
    pub pfs_small: u64,
    pub pfs_sim_ns: u64,
    pub pfs_written: u64,
    pub kernel: KernelStats,
    pub cache: PoolStats,
    pub batches: u64,
    pub lock_waits: u64,
}

impl Snap {
    /// PFS and kernel counters; the server's cache and lock counters are
    /// filled in by the workloads that have them.
    pub fn take(pfs: &Pfs) -> Snap {
        let st = pfs.stats();
        Snap {
            pfs_requests: st.total_requests(),
            pfs_seeks: st.total_seeks(),
            pfs_small: st.size_histogram()[0],
            pfs_sim_ns: st.sim_time_parallel_ns(),
            pfs_written: st.per_server.iter().map(|s| s.bytes_written).sum(),
            kernel: kernel_stats(),
            ..Snap::default()
        }
    }

    pub fn delta(&self, before: &Snap) -> Snap {
        Snap {
            pfs_requests: self.pfs_requests - before.pfs_requests,
            pfs_seeks: self.pfs_seeks - before.pfs_seeks,
            pfs_small: self.pfs_small - before.pfs_small,
            pfs_sim_ns: self.pfs_sim_ns - before.pfs_sim_ns,
            pfs_written: self.pfs_written - before.pfs_written,
            kernel: self.kernel.delta_since(&before.kernel),
            cache: self.cache.delta_since(&before.cache),
            batches: self.batches - before.batches,
            lock_waits: self.lock_waits - before.lock_waits,
        }
    }
}

/// What a workload hands back: set-up times, the untraced phase with its
/// counter deltas, and (traced runs) the traced phase with its layers.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub untraced: Recorder,
    pub counters: Snap,
    pub traced: Option<(Recorder, Layers)>,
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics of an untraced phase, as `(name, value, unit)`.
/// Tail percentiles are not among them: on a 2-vCPU VM shared with other
/// tenants, p90 of the multi-threaded workloads (appends parked behind a
/// collective, points behind an extend) moved by 25–45% between sets of
/// runs of the same code, more than any admissible bound. p90, p95 and p99
/// are printed with their sample counts in the summary instead.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let r = &o.untraced;
    let pct = |kind, p| percentile(&r.latencies(kind), p);
    vec![
        ("read_mib_s", throughput_mib_s(r, true), "MiB/s"),
        ("write_mib_s", throughput_mib_s(r, false), "MiB/s"),
        ("slab_p50_ms", pct(Kind::Slab, 50.0) * 1e3, "ms"),
        ("point_p50_us", pct(Kind::Point, 50.0) * 1e6, "us"),
        ("append_p50_ms", pct(Kind::Append, 50.0) * 1e3, "ms"),
        ("ops_s", ops_per_s(r), "1/s"),
        ("setup_s", median(&o.setup_s), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run. Times are microseconds per
/// traced operation; counts are per untraced operation.
pub fn per_layer(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let (b, l) = o.traced.as_ref().expect("per-layer metrics need a traced phase");
    let a = &o.untraced;
    let c = &o.counters;
    let tops = b.attempted.max(1) as f64;
    let aops = a.attempted.max(1) as f64;
    let us = |k: &str| l.get(k) / tops * 1e6;
    let self_sum: f64 = SELF_TIMES.iter().map(|k| l.get(k)).sum();
    let a_mean = ratio(a.op_s, a.attempted as f64);
    let b_mean = ratio(b.op_s, b.attempted as f64);
    let accesses = (c.cache.hits + c.cache.misses) as f64;
    vec![
        ("pfs.read_us", us("pfs.read"), "us"),
        ("pfs.write_us", us("pfs.write"), "us"),
        ("pfs.requests", c.pfs_requests as f64 / aops, "count"),
        ("pfs.seeks", c.pfs_seeks as f64 / aops, "count"),
        ("pfs.small_requests", c.pfs_small as f64 / aops, "count"),
        ("pfs.sim_parallel_ms", c.pfs_sim_ns as f64 / 1e6 / aops, "ms"),
        (
            "pfs.write_amp",
            ratio(c.pfs_written as f64, a.samples.iter().map(|s| s.written).sum::<u64>() as f64),
            "ratio",
        ),
        ("mp.alloc_us", us("mp.alloc"), "us"),
        ("mp.kernel_us", us("mp.kernel"), "us"),
        ("mp.kernel_gb_s", ratio(l.get("n.kernel_bytes") / 1e9, l.get("mp.kernel")), "GB/s"),
        ("mp.memcpy_bytes", c.kernel.memcpy_bytes as f64 / aops, "bytes"),
        ("mp.tiled_elems", c.kernel.tiled_elems as f64 / aops, "count"),
        ("mp.generic_elems", c.kernel.generic_elems as f64 / aops, "count"),
        ("mp.rmw_chunks", ratio(l.get("n.rmw_chunks"), l.get("n.write_ops")), "count"),
        ("msg.read_all_us", us("msg.read_all"), "us"),
        ("msg.write_all_us", us("msg.write_all"), "us"),
        ("msg.rank_skew_ms", ratio(l.get("msg.skew"), l.get("n.collectives")) * 1e3, "ms"),
        ("core.plan_us", us("core.plan"), "us"),
        ("core.chunks_per_run", ratio(l.get("n.plan_chunks"), l.get("n.plan_runs")), "ratio"),
        ("cache.hit_rate", ratio(c.cache.hits as f64, accesses), "ratio"),
        ("cache.misses", c.cache.misses as f64 / aops, "count"),
        ("cache.evictions", c.cache.evictions as f64 / aops, "count"),
        ("cache.writebacks", c.cache.writebacks as f64 / aops, "count"),
        ("cache.read_us", us("cache.read"), "us"),
        ("cache.chunks_per_batch", ratio(c.cache.misses as f64, c.batches as f64), "ratio"),
        ("cache.flush_us", us("cache.flush"), "us"),
        ("lock.acquire_us", us("lock.acquire"), "us"),
        ("lock.waits", c.lock_waits as f64 / aops, "count"),
        ("lock.entries_per_op", ratio(l.get("n.lock_entries"), l.get("n.lock_ops")), "count"),
        ("server.handle_us", us("server.handle"), "us"),
        ("server.copy_us", us("server.copy"), "us"),
        ("server.extend_us", us("server.extend"), "us"),
        ("proto.encode_us", us("proto.encode"), "us"),
        ("proto.decode_us", us("proto.decode"), "us"),
        (
            "proto.frame_bytes_per_user_byte",
            ratio(l.get("n.frame_bytes"), l.get("n.user_bytes")),
            "ratio",
        ),
        ("tcp.socket_us", us("tcp.socket"), "us"),
        ("trace.unattributed_pct", ratio(b.op_s - self_sum, b.op_s) * 100.0, "%"),
        ("trace.overhead_pct", ratio(b_mean - a_mean, a_mean) * 100.0, "%"),
    ]
}

/// Byte-for-byte equality of two element buffers (NaN-safe).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Decode little-endian f64 bytes.
pub fn f64s(bytes: &[u8]) -> Vec<f64> {
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect()
}

/// Encode f64s as little-endian bytes.
pub fn le_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}
