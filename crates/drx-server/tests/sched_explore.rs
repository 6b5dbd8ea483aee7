//! Bounded exhaustive schedule exploration of the locking and cache layer.
//!
//! Compiled only under `RUSTFLAGS="--cfg drx_sched"` (use a separate
//! `CARGO_TARGET_DIR` so the cfg change does not thrash the main build
//! cache):
//!
//! ```sh
//! RUSTFLAGS="--cfg drx_sched" CARGO_TARGET_DIR=target/sched \
//!     cargo test -p drx-server --test sched_explore
//! ```
//!
//! Under that cfg, `RangeLockManager` and `SharedChunkCache` are built on
//! `drx_sched::sync` primitives, and the explorer enumerates *every*
//! bounded interleaving of the scenario threads, checking on each one:
//!
//! * deadlock freedom (all-or-nothing acquisition admits no hold-and-wait),
//! * mutual exclusion between conflicting lock holders,
//! * writer priority: once a writer has registered on a chunk, no reader
//!   that requests afterwards is granted before the writer,
//! * one fetch per chunk through the cache's single guard, whichever of
//!   two overlapping readers enters first.

#![cfg(drx_sched)]

use drx_sched::{explore, Event, Options, RunTrace};
use drx_server::{LockMode, RangeLockManager, SharedChunkCache};
use std::sync::Arc;

type Body = Box<dyn FnOnce() + Send>;

/// Probe labels emitted by `drx-server/src/lock.rs`.
const REQ_READ: &str = "lock:request-read";
const REQ_WRITE: &str = "lock:request-write";
const REGISTER: &str = "lock:register-writer";
const GRANT_READ: &str = "lock:grant-read";
const GRANT_WRITE: &str = "lock:grant-write";
const RELEASE: &str = "lock:release";

/// Flatten a trace to its probe events.
fn probes(trace: &RunTrace) -> Vec<(usize, &'static str)> {
    trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Probe(tid, label) => Some((*tid, *label)),
            Event::Schedule(_) => None,
        })
        .collect()
}

/// First position of `(tid, label)` in the probe list, if any.
fn pos(probes: &[(usize, &'static str)], tid: usize, label: &str) -> Option<usize> {
    probes.iter().position(|&(t, l)| t == tid && l == label)
}

/// Assert that the grant..release windows of the given threads are pairwise
/// disjoint — valid whenever every pair of threads conflicts on some chunk.
fn assert_disjoint_holds(probes: &[(usize, &'static str)], tids: &[usize]) {
    let mut holder: Option<usize> = None;
    for &(t, l) in probes {
        if !tids.contains(&t) {
            continue;
        }
        match l {
            GRANT_READ | GRANT_WRITE => {
                assert!(holder.is_none(), "thread {t} granted while {holder:?} still holds");
                holder = Some(t);
            }
            RELEASE => {
                assert_eq!(holder, Some(t), "release by a thread that was not the holder");
                holder = None;
            }
            _ => {}
        }
    }
    assert!(holder.is_none(), "a guard was never released");
}

/// The paper's conflict scenario, exhaustively: two writers with
/// overlapping chunk sets plus one reader on the contended chunk. Every
/// schedule must complete (no deadlock), hold conflicting locks disjointly,
/// and respect writer priority on chunk 2.
#[test]
fn lock_two_writers_one_reader_exhaustive() {
    let mut grant_orders = std::collections::BTreeSet::new();
    let mut priority_cases = 0u64;
    let stats = explore(
        Options::default(),
        || {
            let m = Arc::new(RangeLockManager::new());
            let (m1, m2, m3) = (Arc::clone(&m), Arc::clone(&m), Arc::clone(&m));
            vec![
                Box::new(move || drop(m1.acquire(&[1, 2], LockMode::Write))) as Body,
                Box::new(move || drop(m2.acquire(&[2, 3], LockMode::Write))) as Body,
                Box::new(move || drop(m3.acquire(&[2], LockMode::Read))) as Body,
            ]
        },
        |trace| {
            assert!(
                trace.panic.is_none(),
                "panic in schedule {:?}: {:?}",
                trace.schedule,
                trace.panic
            );
            assert!(!trace.deadlock, "deadlock in schedule {:?}", trace.schedule);
            let p = probes(trace);

            // Every thread requested, was granted exactly once, and released.
            for (tid, req, grant) in [
                (0, REQ_WRITE, GRANT_WRITE),
                (1, REQ_WRITE, GRANT_WRITE),
                (2, REQ_READ, GRANT_READ),
            ] {
                assert!(pos(&p, tid, req).is_some(), "thread {tid} never requested");
                let grants = p.iter().filter(|&&(t, l)| t == tid && l == grant).count();
                assert_eq!(grants, 1, "thread {tid} granted {grants} times");
                assert!(pos(&p, tid, RELEASE).is_some(), "thread {tid} never released");
            }

            // All three sets pairwise overlap on chunk 2, so no two holds
            // may coexist.
            assert_disjoint_holds(&p, &[0, 1, 2]);

            // Writer priority: a writer registered before the reader even
            // *requested* must be granted before the reader.
            for w in [0usize, 1] {
                if let (Some(reg), Some(req_r)) = (pos(&p, w, REGISTER), pos(&p, 2, REQ_READ)) {
                    if reg < req_r {
                        priority_cases += 1;
                        let gw = pos(&p, w, GRANT_WRITE).unwrap();
                        let gr = pos(&p, 2, GRANT_READ).unwrap();
                        assert!(
                            gw < gr,
                            "writer {w} registered before the reader requested but was \
                             granted after it (schedule {:?})",
                            trace.schedule
                        );
                    }
                }
            }

            // Record which thread got chunk 2 first, to prove the explorer
            // actually reaches different outcomes.
            let first = p
                .iter()
                .find(|&&(_, l)| l == GRANT_READ || l == GRANT_WRITE)
                .map(|&(t, _)| t)
                .expect("someone must be granted first");
            grant_orders.insert(first);
        },
    );
    assert_eq!(stats.deadlocks, 0, "{stats:?}");
    assert_eq!(stats.complete, stats.runs, "{stats:?}");
    assert!(!stats.truncated, "exploration must be exhaustive: {stats:?}");
    assert!(stats.runs >= 6, "too few interleavings explored: {stats:?}");
    assert_eq!(
        grant_orders.len(),
        3,
        "every thread should win the race in some schedule: {grant_orders:?}"
    );
    assert!(priority_cases > 0, "no schedule exercised the writer-priority path");
}

/// Two readers of disjoint chunk sets must be grantable concurrently in at
/// least one schedule, and writers must never deadlock with them.
#[test]
fn lock_readers_share_while_writer_waits() {
    let mut overlapping_reads = 0u64;
    let stats = explore(
        Options::default(),
        || {
            let m = Arc::new(RangeLockManager::new());
            let (m1, m2, m3) = (Arc::clone(&m), Arc::clone(&m), Arc::clone(&m));
            vec![
                Box::new(move || drop(m1.acquire(&[4], LockMode::Read))) as Body,
                Box::new(move || drop(m2.acquire(&[4], LockMode::Read))) as Body,
                Box::new(move || drop(m3.acquire(&[4], LockMode::Write))) as Body,
            ]
        },
        |trace| {
            assert!(trace.panic.is_none(), "panic: {:?}", trace.panic);
            assert!(!trace.deadlock, "deadlock in schedule {:?}", trace.schedule);
            let p = probes(trace);
            // The writer conflicts with both readers: its hold window must
            // be disjoint from each reader's.
            assert_disjoint_holds(&p, &[0, 2]);
            assert_disjoint_holds(&p, &[1, 2]);
            // Detect schedules where both readers hold chunk 4 at once.
            let (g0, r0) = (pos(&p, 0, GRANT_READ), pos(&p, 0, RELEASE));
            let (g1, r1) = (pos(&p, 1, GRANT_READ), pos(&p, 1, RELEASE));
            if let (Some(g0), Some(r0), Some(g1), Some(r1)) = (g0, r0, g1, r1) {
                if g0 < r1 && g1 < r0 {
                    overlapping_reads += 1;
                }
            }
        },
    );
    assert_eq!(stats.deadlocks, 0, "{stats:?}");
    assert_eq!(stats.complete, stats.runs, "{stats:?}");
    assert!(!stats.truncated);
    assert!(overlapping_reads > 0, "readers never shared the chunk in any schedule");
}

/// Cache layer: two sessions read overlapping chunk sets, `[0, 1]` and
/// `[1, 2]`, through the cache's one guard. Every schedule must finish
/// with correct bytes for both sessions, three misses (chunk 1 is fetched
/// once) and four hits (one per frame walked), and both sessions must
/// enter first in some schedule.
#[test]
fn cache_overlapping_sessions_share_one_fetch() {
    use drx_pfs::Pfs;
    use std::cell::RefCell;
    const CB: usize = 16;
    let current: RefCell<Option<Arc<SharedChunkCache>>> = RefCell::new(None);
    let mut first_in = std::collections::BTreeSet::new();
    let stats = explore(
        Options::default(),
        || {
            let pfs = Pfs::memory(2, 4096).expect("memory pfs");
            let f = pfs.create("payload").expect("create payload");
            f.set_len((8 * CB) as u64).expect("set_len");
            for a in 0..8u64 {
                f.write_at(a * CB as u64, &[a as u8; CB]).expect("seed chunk");
            }
            let cache = Arc::new(SharedChunkCache::new(f, CB, 8).expect("cache"));
            *current.borrow_mut() = Some(Arc::clone(&cache));
            let (c1, c2) = (Arc::clone(&cache), cache);
            // Keep the PFS alive for the duration of the run.
            let hold = pfs;
            vec![
                Box::new(move || {
                    let _hold = &hold;
                    let got = c1.read_chunks(1, &[0, 1]).expect("session 1 read");
                    assert_eq!(got, [vec![0u8; CB], vec![1u8; CB]]);
                }) as Body,
                Box::new(move || {
                    let got = c2.read_chunks(2, &[1, 2]).expect("session 2 read");
                    assert_eq!(got, [vec![1u8; CB], vec![2u8; CB]]);
                }) as Body,
            ]
        },
        |trace| {
            assert!(
                trace.panic.is_none(),
                "panic in schedule {:?}: {:?}",
                trace.schedule,
                trace.panic
            );
            assert!(!trace.deadlock, "deadlock in schedule {:?}", trace.schedule);
            let cache = current.borrow_mut().take().expect("run built a cache");
            let g = cache.global_stats();
            assert_eq!((g.misses, g.hits), (3, 4), "schedule {:?}", trace.schedule);
            // The session that entered first fetched both of its chunks.
            let s1 = cache.session_stats(1);
            let s2 = cache.session_stats(2);
            assert_eq!(s1.misses + s2.misses, 3);
            first_in.insert(if s1.misses == 2 { 1 } else { 2 });
        },
    );
    assert_eq!(stats.deadlocks, 0, "{stats:?}");
    assert_eq!(stats.complete, stats.runs, "{stats:?}");
    assert!(!stats.truncated, "cache exploration must be exhaustive: {stats:?}");
    assert!(stats.runs >= 2, "{stats:?}");
    assert_eq!(first_in.len(), 2, "both entry orders must be reached: {first_in:?}");
}
