//! List I/O: one server request per contiguous run of a server's local
//! stream. Request accounting, retry of a whole multi-piece request, and
//! byte equivalence with the per-fragment view of a range.

use drx_pfs::fault::{Injector, Script};
use drx_pfs::{Pfs, PfsConfig, RetryPolicy, StripeMap};
use proptest::prelude::*;
use std::sync::Arc;

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 251) as u8).collect()
}

/// Per-server local runs the byte ranges of `extents` touch, counted from
/// the bytes themselves. Extents must be sorted and disjoint, so each
/// server sees its local offsets in increasing order.
fn local_runs(map: &StripeMap, extents: &[(u64, u64)]) -> u64 {
    let mut last: Vec<Option<u64>> = vec![None; map.n_servers()];
    let mut runs = 0;
    for &(offset, len) in extents {
        for g in offset..offset + len {
            let (server, local) = map.locate(g);
            if last[server].map(|l| l + 1) != Some(local) {
                runs += 1;
            }
            last[server] = Some(local);
        }
    }
    runs
}

#[test]
fn contiguous_read_of_k_rounds_is_one_request_per_server() {
    for n_servers in 1..=8usize {
        for rounds in 1..=4u64 {
            let pfs = Pfs::memory(n_servers, 64).unwrap();
            let f = pfs.create("f").unwrap();
            let len = rounds * n_servers as u64 * 64;
            let data = pattern(len as usize);
            f.write_at(0, &data).unwrap();
            pfs.reset_stats();
            assert_eq!(f.read_vec(0, len as usize).unwrap(), data);
            let st = pfs.stats();
            assert_eq!(
                st.total_requests(),
                n_servers as u64,
                "{n_servers} servers, {rounds} rounds"
            );
            for s in &st.per_server {
                assert_eq!((s.read_requests, s.bytes_read), (1, rounds * 64));
            }
        }
    }
}

#[test]
fn a_list_request_is_one_seek_check() {
    let pfs = Pfs::memory(4, 16).unwrap();
    let f = pfs.create("f").unwrap();
    f.write_at(0, &pattern(320)).unwrap();
    pfs.reset_stats();
    // Four servers, four local stripes each: four requests that each
    // start away from where the write left the server, so four seeks
    // rather than sixteen.
    f.read_vec(0, 256).unwrap();
    assert_eq!(pfs.stats().total_seeks(), 4);
    // Continuing each server's stream is seek-free.
    pfs.reset_stats();
    f.read_vec(256, 64).unwrap();
    assert_eq!(pfs.stats().total_seeks(), 0);
}

/// A transient fault on the second piece of a two-piece request retries
/// the whole request, and the caller gets the right bytes.
#[test]
fn transient_fault_inside_a_multi_piece_request_is_retried_whole() {
    for kind in ["short-read", "interrupt"] {
        // Two servers, stripe 16: the 64-byte write and read each give
        // server 0 the pieces [0, 16) and [32, 48) in one request, and
        // server 1 [16, 32) and [48, 64). Pieces run in the fragments'
        // order: storage ops 0–3 are the write, op 6 is the second piece of
        // server 0's read request.
        let script = Script::parse(&format!("@6 op=read {kind}\n")).unwrap();
        let inj = Arc::new(Injector::new(script));
        let pfs = Pfs::new(PfsConfig {
            n_servers: 2,
            stripe_size: 16,
            injector: Some(Arc::clone(&inj)),
            retry: RetryPolicy { base_delay_us: 1, max_delay_us: 10, ..RetryPolicy::default() },
            ..PfsConfig::default()
        })
        .unwrap();
        let f = pfs.create("f").unwrap();
        let data = pattern(64);
        f.write_at(0, &data).unwrap();
        assert_eq!(inj.ops(), 4);
        pfs.reset_stats();
        assert_eq!(f.read_vec(0, 64).unwrap(), data, "{kind}");
        assert_eq!(inj.fired().len(), 1, "{kind}: the scripted fault fired");
        // Server 0: the failed attempt and its full re-issue (two pieces
        // each); server 1: one clean request.
        assert_eq!(inj.ops(), 4 + 2 + 2 + 2, "{kind}");
        let st = pfs.stats();
        assert_eq!(st.per_server[0].read_requests, 2, "{kind}");
        assert_eq!(st.per_server[1].read_requests, 1, "{kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reads and writes of any range issue exactly `request_count`
    /// requests.
    #[test]
    fn total_requests_match_request_count(
        n_servers in 1usize..8,
        stripe in 1u64..128,
        offset in 0u64..2000,
        len in 1u64..3000,
        workers in 1usize..5,
    ) {
        let pfs = Pfs::new(PfsConfig {
            n_servers,
            stripe_size: stripe,
            io_workers: workers,
            ..PfsConfig::default()
        })
        .unwrap();
        let f = pfs.create("f").unwrap();
        let expected = f.request_count(offset, len) as u64;
        let data = pattern(len as usize);
        f.write_at(offset, &data).unwrap();
        prop_assert_eq!(pfs.stats().total_requests(), expected);
        pfs.reset_stats();
        prop_assert_eq!(f.read_vec(offset, len as usize).unwrap(), data);
        prop_assert_eq!(pfs.stats().total_requests(), expected);
        prop_assert_eq!(pfs.stats().total_bytes(), len);
    }

    /// Interleaved chunk reads (every chunk a separate extent, with holes)
    /// issue one request per local run, and return the right bytes.
    #[test]
    fn interleaved_chunk_reads_issue_one_request_per_local_run(
        n_servers in 1usize..6,
        stripe in 1u64..64,
        chunk in 1u64..64,
        keep in prop::collection::vec(any::<bool>(), 1..40),
        workers in 1usize..5,
    ) {
        let pfs = Pfs::new(PfsConfig {
            n_servers,
            stripe_size: stripe,
            io_workers: workers,
            ..PfsConfig::default()
        })
        .unwrap();
        let f = pfs.create("f").unwrap();
        let file = pattern((keep.len() as u64 * chunk) as usize);
        f.write_at(0, &file).unwrap();
        let extents: Vec<(u64, u64)> = keep
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k)
            .map(|(i, _)| (i as u64 * chunk, chunk))
            .collect();
        pfs.reset_stats();
        let back = f.read_extents(&extents).unwrap();
        let want: Vec<u8> = extents
            .iter()
            .flat_map(|&(o, l)| file[o as usize..(o + l) as usize].to_vec())
            .collect();
        prop_assert_eq!(back, want);
        let map = StripeMap::new(n_servers, stripe).unwrap();
        prop_assert_eq!(pfs.stats().total_requests(), local_runs(&map, &extents));
    }
}
