//! Round-robin striping — the data distribution PVFS2 applies to file
//! contents across its I/O servers.
//!
//! A logical byte offset is decomposed into a stripe index; stripes are dealt
//! round-robin to the servers. A logical request that spans stripe
//! boundaries splits into per-server fragments; fragments that continue one
//! server's local stream share a single server request, so a request count
//! is the number of local runs touched — the fragmentation measured by
//! experiment E5 (chunk size vs stripe size reconciliation, the paper's §V
//! future-work item).

use crate::error::{PfsError, Result};

/// One fragment of a logical request, addressed to a single server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// Which server holds the bytes.
    pub server: usize,
    /// Offset in the server's local file.
    pub local_offset: u64,
    /// Offset in the logical file.
    pub global_offset: u64,
    /// Fragment length in bytes.
    pub len: u64,
}

/// The striping geometry of a file system: `n_servers` servers, fixed
/// `stripe_size` in bytes, round-robin layout starting at server 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeMap {
    stripe_size: u64,
    n_servers: usize,
}

impl StripeMap {
    pub fn new(n_servers: usize, stripe_size: u64) -> Result<Self> {
        if n_servers == 0 {
            return Err(PfsError::Config("need at least one I/O server".into()));
        }
        if stripe_size == 0 {
            return Err(PfsError::Config("stripe size must be positive".into()));
        }
        Ok(StripeMap { stripe_size, n_servers })
    }

    pub fn stripe_size(&self) -> u64 {
        self.stripe_size
    }

    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// Locate a single byte: `(server, local offset)`.
    pub fn locate(&self, offset: u64) -> (usize, u64) {
        let stripe = offset / self.stripe_size;
        let within = offset % self.stripe_size;
        let server = (stripe % self.n_servers as u64) as usize;
        let local_stripe = stripe / self.n_servers as u64;
        (server, local_stripe * self.stripe_size + within)
    }

    /// Split the logical byte range `[offset, offset+len)` into per-server
    /// fragments, in increasing `global_offset` order: one per stripe the
    /// range touches, each contiguous both in the logical file and in its
    /// server's local stream. Stripes that are adjacent in both (only
    /// possible when `n_servers == 1`) come back as one fragment. A range
    /// reaching past `u64::MAX` is cut off there; [`crate::PfsFile`]
    /// rejects such ranges before splitting.
    pub fn split(&self, offset: u64, len: u64) -> Vec<Fragment> {
        self.fragments(offset, len).collect()
    }

    /// [`StripeMap::split`] as a lazy iterator, so callers that only walk
    /// the fragments allocate nothing.
    pub fn fragments(&self, offset: u64, len: u64) -> impl Iterator<Item = Fragment> + '_ {
        let end = offset.saturating_add(len);
        let mut pos = offset;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let (server, local_offset) = self.locate(pos);
            let frag_end = if self.n_servers == 1 {
                end
            } else {
                (pos / self.stripe_size + 1).saturating_mul(self.stripe_size).min(end)
            };
            let frag = Fragment { server, local_offset, global_offset: pos, len: frag_end - pos };
            pos = frag_end;
            Some(frag)
        })
    }

    /// Number of server requests a read or write of the range generates —
    /// the E5 metric. A server request covers one contiguous run of the
    /// server's local stream, and fragments that continue a server's run
    /// join it. Within one contiguous logical range every server's stripes
    /// are consecutive in its local stream, so each server the range
    /// touches serves exactly one run: the count is the number of stripes
    /// touched, capped at the number of servers.
    pub fn request_count(&self, offset: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let last = offset.saturating_add(len - 1);
        let stripes = last / self.stripe_size - offset / self.stripe_size + 1;
        stripes.min(self.n_servers as u64) as usize
    }

    /// Inverse of [`StripeMap::locate`]: the logical offset of local byte
    /// `local_offset` on `server`.
    pub fn global_offset(&self, server: usize, local_offset: u64) -> u64 {
        let local_stripe = local_offset / self.stripe_size;
        let within = local_offset % self.stripe_size;
        let stripe = local_stripe * self.n_servers as u64 + server as u64;
        stripe * self.stripe_size + within
    }

    /// The logical length implied by `server` holding `local_len` local
    /// bytes: one past the global offset of its last local byte. Used by
    /// crash recovery to rebuild logical file lengths from the surviving
    /// server-local streams.
    pub fn global_end(&self, server: usize, local_len: u64) -> u64 {
        if local_len == 0 {
            0
        } else {
            self.global_offset(server, local_len - 1) + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_round_robin() {
        let m = StripeMap::new(4, 100).unwrap();
        assert_eq!(m.locate(0), (0, 0));
        assert_eq!(m.locate(99), (0, 99));
        assert_eq!(m.locate(100), (1, 0));
        assert_eq!(m.locate(399), (3, 99));
        // Second round: stripe 4 lands on server 0 at local offset 100.
        assert_eq!(m.locate(400), (0, 100));
        assert_eq!(m.locate(450), (0, 150));
    }

    #[test]
    fn split_within_one_stripe() {
        let m = StripeMap::new(4, 100).unwrap();
        let f = m.split(120, 50);
        assert_eq!(f, vec![Fragment { server: 1, local_offset: 20, global_offset: 120, len: 50 }]);
    }

    #[test]
    fn split_across_stripes() {
        let m = StripeMap::new(2, 100).unwrap();
        let f = m.split(50, 200);
        assert_eq!(
            f,
            vec![
                Fragment { server: 0, local_offset: 50, global_offset: 50, len: 50 },
                Fragment { server: 1, local_offset: 0, global_offset: 100, len: 100 },
                Fragment { server: 0, local_offset: 100, global_offset: 200, len: 50 },
            ]
        );
    }

    #[test]
    fn split_single_server_coalesces() {
        let m = StripeMap::new(1, 64).unwrap();
        let f = m.split(0, 1000);
        assert_eq!(f.len(), 1, "single server: all stripes are contiguous locally");
        assert_eq!(f[0].len, 1000);
    }

    #[test]
    fn split_covers_range_exactly() {
        let m = StripeMap::new(3, 37).unwrap();
        let f = m.split(11, 1000);
        let total: u64 = f.iter().map(|x| x.len).sum();
        assert_eq!(total, 1000);
        // Fragments are ordered and contiguous in global offsets.
        let mut pos = 11;
        for frag in &f {
            assert_eq!(frag.global_offset, pos);
            pos += frag.len;
        }
    }

    #[test]
    fn aligned_requests_touch_one_server() {
        // A chunk exactly equal to the stripe size, aligned, is one request;
        // misaligned chunks double the request count (the E5 effect).
        let m = StripeMap::new(4, 4096).unwrap();
        assert_eq!(m.request_count(4096 * 3, 4096), 1);
        assert_eq!(m.request_count(4096 * 3 + 100, 4096), 2);
    }

    #[test]
    fn global_offset_inverts_locate() {
        let m = StripeMap::new(3, 37).unwrap();
        for offset in (0..2000u64).step_by(13) {
            let (server, local) = m.locate(offset);
            assert_eq!(m.global_offset(server, local), offset);
        }
    }

    #[test]
    fn global_end_recovers_logical_length() {
        let m = StripeMap::new(4, 100).unwrap();
        assert_eq!(m.global_end(0, 0), 0);
        // Server 0 holding 100 local bytes = logical stripe 0 complete.
        assert_eq!(m.global_end(0, 100), 100);
        // Server 2 holding 50 bytes: last byte is logical offset 249.
        assert_eq!(m.global_end(2, 50), 250);
        // A file of logical length L: max over servers reconstructs L.
        for flen in [1u64, 99, 100, 101, 399, 400, 401, 1234] {
            let recovered = (0..4)
                .map(|s| {
                    // Local length of server s for a dense file of length flen.
                    let local = (0..flen)
                        .filter(|&g| m.locate(g).0 == s)
                        .map(|g| m.locate(g).1 + 1)
                        .max()
                        .unwrap_or(0);
                    m.global_end(s, local)
                })
                .max()
                .unwrap_or(0);
            assert_eq!(recovered, flen, "flen {flen}");
        }
    }

    #[test]
    fn request_count_is_one_per_local_run() {
        let m = StripeMap::new(4, 100).unwrap();
        // Three full stripe rounds: each server serves one local run.
        assert_eq!(m.request_count(0, 1200), 4);
        // Two stripes, one server each.
        assert_eq!(m.request_count(50, 100), 2);
        assert_eq!(m.request_count(0, 0), 0);
        // A brute-force count of per-server local runs agrees.
        for (offset, len) in [(0u64, 1u64), (99, 2), (37, 777), (350, 1000), (400, 400)] {
            let mut runs = 0;
            let mut last_end = [None::<u64>; 4];
            for f in m.split(offset, len) {
                if last_end[f.server] != Some(f.local_offset) {
                    runs += 1;
                }
                last_end[f.server] = Some(f.local_offset + f.len);
            }
            assert_eq!(m.request_count(offset, len), runs, "[{offset}, +{len})");
        }
    }

    #[test]
    fn ranges_near_u64_max_do_not_overflow() {
        let m = StripeMap::new(3, 64).unwrap();
        let at = u64::MAX - 7;
        // Cut off at u64::MAX instead of wrapping around to offset 0.
        let frags = m.split(at, 16);
        assert_eq!(frags.iter().map(|f| f.len).sum::<u64>(), 7);
        assert!(frags.iter().all(|f| f.global_offset >= at));
        assert_eq!(m.request_count(at, 16), 1);
        assert_eq!(StripeMap::new(1, 64).unwrap().split(at, 16).len(), 1);
    }

    #[test]
    fn empty_range_and_config_errors() {
        let m = StripeMap::new(2, 10).unwrap();
        assert!(m.split(5, 0).is_empty());
        assert!(StripeMap::new(0, 10).is_err());
        assert!(StripeMap::new(2, 0).is_err());
    }
}
