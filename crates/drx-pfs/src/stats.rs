//! Request statistics and the deterministic cost model.
//!
//! Benchmarks need two kinds of numbers: wall-clock time (perfbench and the
//! harness's ns/op columns measure that) and *deterministic, reproducible*
//! simulated time that isolates the access-pattern effects the paper
//! reasons about (seeks, request counts, transferred bytes) from host
//! noise. Each simulated I/O server charges its requests against a
//! [`CostModel`] and accumulates busy time; parallel simulated time is the
//! maximum over servers, total work the sum.

/// Deterministic cost model of one I/O server, loosely calibrated to a
/// mid-2000s cluster node (the paper's PVFS2 testbed era): ~8 ms seek,
/// ~0.1 ms per request overhead, ~60 MB/s sequential transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Charged when a request does not start where the previous one ended.
    pub seek_ns: u64,
    /// Fixed software/network overhead per request.
    pub per_request_ns: u64,
    /// Transfer time per byte (1 / bandwidth).
    pub ns_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // 8 ms seek, 100 µs request overhead, 60 MB/s ≈ 16.7 ns/byte.
        CostModel { seek_ns: 8_000_000, per_request_ns: 100_000, ns_per_byte: 16.7 }
    }
}

impl CostModel {
    /// A model with no seek penalty — useful for isolating request-count
    /// effects in tests.
    pub fn flat(per_request_ns: u64, ns_per_byte: f64) -> Self {
        CostModel { seek_ns: 0, per_request_ns, ns_per_byte }
    }

    /// Cost of one request of `len` bytes; `seek` says whether the head had
    /// to move.
    pub fn request_cost(&self, len: u64, seek: bool) -> u64 {
        let transfer = (len as f64 * self.ns_per_byte) as u64;
        self.per_request_ns + transfer + if seek { self.seek_ns } else { 0 }
    }
}

/// Upper bounds (exclusive) of the request-size histogram buckets, in
/// bytes; the last bucket is unbounded.
pub const SIZE_BUCKETS: [u64; 4] = [4 << 10, 64 << 10, 1 << 20, u64::MAX];

/// Human-readable labels for [`SIZE_BUCKETS`].
pub const SIZE_BUCKET_LABELS: [&str; 4] = ["<4K", "4K-64K", "64K-1M", ">=1M"];

/// Per-server counters. All values are cumulative since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub read_requests: u64,
    pub write_requests: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// Requests that required a seek (non-contiguous with the previous
    /// request on this server).
    pub seeks: u64,
    /// Accumulated busy time under the cost model, in nanoseconds.
    pub busy_ns: u64,
    /// Request-size histogram (buckets per [`SIZE_BUCKETS`]). Small-request
    /// storms are the signature of unaligned or non-native-order access —
    /// what E3/E4 diagnose.
    pub size_histogram: [u64; 4],
}

impl ServerStats {
    pub fn requests(&self) -> u64 {
        self.read_requests + self.write_requests
    }

    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Record one request and return its cost.
    pub fn record(&mut self, cost: &CostModel, is_write: bool, len: u64, seek: bool) -> u64 {
        if is_write {
            self.write_requests += 1;
            self.bytes_written += len;
        } else {
            self.read_requests += 1;
            self.bytes_read += len;
        }
        if seek {
            self.seeks += 1;
        }
        let bucket = SIZE_BUCKETS.iter().position(|&hi| len < hi).unwrap_or(3);
        self.size_histogram[bucket] += 1;
        let c = cost.request_cost(len, seek);
        self.busy_ns += c;
        c
    }
}

/// Aggregate view across all servers of a file system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PfsStats {
    pub per_server: Vec<ServerStats>,
}

impl PfsStats {
    pub fn total_requests(&self) -> u64 {
        self.per_server.iter().map(|s| s.requests()).sum()
    }

    pub fn total_bytes(&self) -> u64 {
        self.per_server.iter().map(|s| s.bytes()).sum()
    }

    pub fn total_seeks(&self) -> u64 {
        self.per_server.iter().map(|s| s.seeks).sum()
    }

    /// Simulated elapsed time assuming servers work in parallel: the busiest
    /// server bounds completion.
    pub fn sim_time_parallel_ns(&self) -> u64 {
        self.per_server.iter().map(|s| s.busy_ns).max().unwrap_or(0)
    }

    /// Total simulated work (sum of busy time) — the serial-equivalent cost.
    pub fn sim_time_total_ns(&self) -> u64 {
        self.per_server.iter().map(|s| s.busy_ns).sum()
    }

    /// Aggregate request-size histogram across servers.
    pub fn size_histogram(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for s in &self.per_server {
            for (o, &v) in out.iter_mut().zip(&s.size_histogram) {
                *o += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_components() {
        let m = CostModel { seek_ns: 1000, per_request_ns: 10, ns_per_byte: 2.0 };
        assert_eq!(m.request_cost(5, false), 10 + 10);
        assert_eq!(m.request_cost(5, true), 10 + 10 + 1000);
        assert_eq!(m.request_cost(0, false), 10);
    }

    #[test]
    fn record_accumulates() {
        let m = CostModel::flat(10, 1.0);
        let mut s = ServerStats::default();
        let c1 = s.record(&m, false, 100, false);
        let c2 = s.record(&m, true, 50, true);
        assert_eq!(c1, 110);
        assert_eq!(c2, 60); // flat: no seek cost
        assert_eq!(s.read_requests, 1);
        assert_eq!(s.write_requests, 1);
        assert_eq!(s.bytes(), 150);
        assert_eq!(s.seeks, 1);
        assert_eq!(s.busy_ns, 170);
    }

    #[test]
    fn size_histogram_buckets() {
        let m = CostModel::flat(1, 0.0);
        let mut s = ServerStats::default();
        s.record(&m, false, 100, false); // <4K
        s.record(&m, false, 8 << 10, false); // 4K-64K
        s.record(&m, true, 128 << 10, false); // 64K-1M
        s.record(&m, true, 2 << 20, false); // >=1M
        assert_eq!(s.size_histogram, [1, 1, 1, 1]);
        let stats = PfsStats { per_server: vec![s, s] };
        assert_eq!(stats.size_histogram(), [2, 2, 2, 2]);
        assert_eq!(SIZE_BUCKETS.len(), SIZE_BUCKET_LABELS.len());
    }

    #[test]
    fn aggregate_parallel_vs_total() {
        let mut a = ServerStats::default();
        let mut b = ServerStats::default();
        let m = CostModel::flat(100, 0.0);
        a.record(&m, false, 0, false);
        a.record(&m, false, 0, false);
        b.record(&m, false, 0, false);
        let stats = PfsStats { per_server: vec![a, b] };
        assert_eq!(stats.total_requests(), 3);
        assert_eq!(stats.sim_time_parallel_ns(), 200);
        assert_eq!(stats.sim_time_total_ns(), 300);
    }
}
