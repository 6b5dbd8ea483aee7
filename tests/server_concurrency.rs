//! Concurrency tests for the drx-server array service.
//!
//! The main test drives ten concurrent clients (six in-process, four over
//! TCP) through a mixed read/write/extend workload against one array, then
//! proves the result is *linearizable* the hard way: the operations each
//! thread performed are replayed serially through a plain `DrxFile` and the
//! two files must come out byte-identical — payload and metadata.
//!
//! Replay correctness rests on two facts the workload is built around:
//!
//! * Physical chunk layout depends only on the *extension history*. Extends
//!   are serialized by the server, and each returns the resulting bounds —
//!   which grow strictly monotonically — so sorting the recorded extends by
//!   returned bound reconstructs the exact server-side commit order.
//! * Each thread writes only its own band of rows, so writes from different
//!   threads touch disjoint elements (even when bands share boundary
//!   chunks, which they do here by construction: band height 3 vs chunk
//!   height 2 forces read-modify-write on shared chunks). Any
//!   thread-order-preserving replay of the writes yields the same cells.
//!
//! A second test pins down the I/O coalescing claim: concurrent
//! multi-chunk reads through the server must cost fewer PFS requests than
//! the same access pattern issued naively chunk-by-chunk.

use drx::serial::DrxFile;
use drx::server::{serve, Client, Server, ServerConfig, TcpClient};
use drx::{Layout, Pfs, Region};
use std::sync::{Arc, Mutex};
use std::thread;

const THREADS: usize = 10;
const BAND: usize = 3; // rows per thread; deliberately not the chunk height
const ROWS: usize = THREADS * BAND;
const COLS: usize = 8;
const CHUNK: [usize; 2] = [2, 4];
const VERSIONS: usize = 5;

/// One recorded client operation, in absolute coordinates.
#[derive(Clone)]
enum Op {
    Write {
        lo: [usize; 2],
        hi: [usize; 2],
        data: Vec<f64>,
    },
    /// Extend of `dim` whose server-acknowledged result was `bound`.
    ExtendTo {
        dim: usize,
        bound: usize,
    },
}

fn tag(thread: usize, version: usize) -> f64 {
    (thread * 100 + version) as f64
}

/// The per-thread workload, generic over the two client transports.
/// Returns the thread's operation log.
fn run_thread<T: drx::server::Transport>(mut client: drx::server::Conn<T>, t: usize) -> Vec<Op> {
    let (h, info) = client.open("a").expect("open");
    assert_eq!(info.bounds[0] as usize, ROWS);
    let mut log = Vec::new();
    let r0 = (t * BAND) as u64;
    let r1 = r0 + BAND as u64;
    for v in 1..=VERSIONS {
        // Write the whole band at the current column bound. The region is
        // locked as one unit, so concurrent readers of any slice of the
        // band see all of this write or none of it.
        let cols = client.stat(h).expect("stat").bounds[1];
        let volume = (BAND as u64 * cols) as usize;
        let data = vec![tag(t, v); volume];
        client.write_region_from::<f64>(h, &[r0, 0], &[r1, cols], &data).expect("write");
        log.push(Op::Write { lo: [r0 as usize, 0], hi: [r1 as usize, cols as usize], data });

        // Each thread grows the column dimension once, mid-workload.
        if v == 3 {
            let bounds = client.extend(h, 1, 2).expect("extend");
            log.push(Op::ExtendTo { dim: 1, bound: bounds[1] as usize });
        }

        // Read our own band over the initial columns: must be exactly the
        // tag we just wrote (nobody else writes these rows).
        let mine = client.read_region_as::<f64>(h, &[r0, 0], &[r1, COLS as u64]).expect("read own");
        assert!(
            mine.iter().all(|&x| x == tag(t, v)),
            "thread {t} v{v}: own band corrupted: {mine:?}"
        );

        // Read another thread's band over the initial columns: whatever
        // version it is at, the slice must be *uniform* — a torn write
        // would show two tags at once.
        let o = (t + 1 + v) % THREADS;
        let olo = (o * BAND) as u64;
        let other = client
            .read_region_as::<f64>(h, &[olo, 0], &[olo + BAND as u64, COLS as u64])
            .expect("read other");
        let first = other[0];
        assert!(
            other.iter().all(|&x| x == first),
            "thread {t} v{v}: torn read of band {o}: {other:?}"
        );
        assert!(
            first == 0.0 || (first as usize) / 100 == o,
            "thread {t} v{v}: band {o} holds foreign tag {first}"
        );
    }
    client.close(h).expect("close");
    log
}

#[test]
fn concurrent_mixed_workload_matches_serial_oracle() {
    let pfs = Pfs::memory(4, 4096).unwrap();
    DrxFile::<f64>::create(&pfs, "a", &CHUNK, &[ROWS, COLS]).unwrap();

    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: 32 });
    let tcp = serve(&server, "127.0.0.1:0", 4).unwrap();
    let addr = tcp.addr();

    let logs: Arc<Mutex<Vec<Vec<Op>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let server = server.clone();
        let logs = Arc::clone(&logs);
        handles.push(thread::spawn(move || {
            // Mix transports: the same workload over TCP and in-process.
            let log = if t % 3 == 0 {
                run_thread(TcpClient::connect(addr).expect("connect"), t)
            } else {
                run_thread(Client::connect(&server), t)
            };
            logs.lock().unwrap().push(log);
        }));
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    tcp.shutdown().unwrap();
    server.flush_all().unwrap();

    // --- Serial oracle replay -------------------------------------------
    let oracle_pfs = Pfs::memory(4, 4096).unwrap();
    let mut oracle = DrxFile::<f64>::create(&oracle_pfs, "a", &CHUNK, &[ROWS, COLS]).unwrap();

    let logs = logs.lock().unwrap();
    // Extends, in reconstructed commit order (monotone resulting bound).
    let mut extends: Vec<(usize, usize)> = logs
        .iter()
        .flatten()
        .filter_map(|op| match op {
            Op::ExtendTo { dim, bound } => Some((*dim, *bound)),
            _ => None,
        })
        .collect();
    assert_eq!(extends.len(), THREADS, "every thread extended exactly once");
    extends.sort_by_key(|&(_, bound)| bound);
    for (dim, bound) in extends {
        let cur = oracle.bounds()[dim];
        assert!(bound > cur, "extend results must be strictly monotone");
        oracle.extend(dim, bound - cur).unwrap();
    }
    // Writes, thread-by-thread (threads write disjoint rows).
    for log in logs.iter() {
        for op in log {
            if let Op::Write { lo, hi, data } = op {
                let region = Region::new(lo.to_vec(), hi.to_vec()).unwrap();
                oracle.write_region(&region, Layout::C, data).unwrap();
            }
        }
    }
    oracle.sync_meta().unwrap();

    // --- Byte-identical comparison --------------------------------------
    let live = DrxFile::<f64>::open(&pfs, "a").unwrap();
    assert_eq!(live.bounds(), oracle.bounds());
    assert_eq!(
        live.meta().encode(),
        oracle.meta().encode(),
        "metadata (axial vectors included) must match the serial replay"
    );
    let live_xta = pfs.open("a.xta").unwrap();
    let oracle_xta = oracle_pfs.open("a.xta").unwrap();
    assert_eq!(live_xta.len(), oracle_xta.len());
    assert_eq!(
        live_xta.read_vec(0, live_xta.len() as usize).unwrap(),
        oracle_xta.read_vec(0, oracle_xta.len() as usize).unwrap(),
        "payload bytes diverge from the serial replay"
    );
    // And logically: every band holds its final tag over the full extent.
    let full = live.read_full(Layout::C).unwrap();
    let cols = live.bounds()[1];
    for t in 0..THREADS {
        for r in t * BAND..(t + 1) * BAND {
            for c in 0..cols {
                let got = full[r * cols + c];
                assert!(
                    got == tag(t, VERSIONS) || (got == 0.0 && c >= COLS),
                    "cell [{r},{c}] = {got}"
                );
            }
        }
    }
}

#[test]
fn coalescing_beats_naive_per_chunk_io() {
    const N_CHUNKS: usize = 16;
    let make = |name: &str| {
        let pfs = Pfs::memory(2, 4096).unwrap();
        let mut f = DrxFile::<f64>::create(&pfs, name, &[8, 4], &[8, 4 * N_CHUNKS]).unwrap();
        f.fill_with(|i| (i[0] * 100 + i[1]) as f64).unwrap();
        (pfs, f)
    };

    // Naive baseline: eight full-array scans issued chunk-by-chunk — one
    // PFS request per chunk, the access pattern of a client that does not
    // coalesce. (The serial library itself now reads regions with one
    // vectored request, so the per-chunk pattern is spelled out here.)
    let (naive_pfs, naive_file) = make("a");
    let full = Region::new(vec![0, 0], vec![8, 4 * N_CHUNKS]).unwrap();
    let expected = naive_file.read_region(&full, Layout::C).unwrap();
    naive_pfs.reset_stats();
    for _ in 0..8 {
        for addr in 0..N_CHUNKS as u64 {
            naive_file.read_chunk_raw(addr).unwrap();
        }
    }
    let naive = naive_pfs.stats().total_requests();
    assert!(naive >= (8 * N_CHUNKS) as u64, "baseline should pay per chunk: {naive}");

    // Served: eight concurrent sessions reading the same full array. Runs
    // of adjacent chunks coalesce into single PFS reads and the shared
    // cache serves repeats, so the request count collapses.
    let (pfs, _file) = make("a");
    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: 2 * N_CHUNKS });
    pfs.reset_stats();
    // A session that holds the array throughout, so its cache (and its
    // counters) outlive the readers: an array no handle holds is retired.
    let mut holder = Client::connect(&server);
    let (held, _) = holder.open("a").unwrap();
    let mut workers = Vec::new();
    for _ in 0..8 {
        let server = server.clone();
        let expected = expected.clone();
        workers.push(thread::spawn(move || {
            let mut client = Client::connect(&server);
            let (h, _) = client.open("a").unwrap();
            let got =
                client.read_region_as::<f64>(h, &[0, 0], &[8, (4 * N_CHUNKS) as u64]).unwrap();
            assert_eq!(got, expected);
            client.close(h).unwrap();
        }));
    }
    for w in workers {
        w.join().expect("reader thread panicked");
    }
    let coalesced = pfs.stats().total_requests();
    assert!(
        coalesced < naive,
        "coalesced I/O ({coalesced} requests) must beat naive per-chunk I/O ({naive})"
    );
    // The eight sessions' 128 chunk reads were served by at most 16 faults.
    let stat = holder.stat(held).unwrap();
    assert_eq!(stat.global_cache.misses, N_CHUNKS as u64);
    assert!(stat.global_cache.hits >= (8 * N_CHUNKS) as u64);
    assert!(stat.coalesced_batches >= 1);
}

#[test]
fn extend_is_serialized_and_readers_survive_growth() {
    let pfs = Pfs::memory(2, 1024).unwrap();
    DrxFile::<i64>::create(&pfs, "g", &[4, 4], &[8, 8]).unwrap();
    let server = Server::new(pfs.clone(), ServerConfig::default());

    // One thread extends dim 0 twenty times while seven readers hammer the
    // initial region; every read must stay valid (addresses never move).
    let mut handles = Vec::new();
    for _ in 0..7 {
        let server = server.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect(&server);
            let (h, _) = client.open("g").unwrap();
            for _ in 0..50 {
                let data = client.read_region_as::<i64>(h, &[0, 0], &[8, 8]).unwrap();
                assert_eq!(data.len(), 64);
                assert!(data.iter().all(|&x| x == 0));
            }
        }));
    }
    let grower = {
        let server = server.clone();
        thread::spawn(move || {
            let mut client = Client::connect(&server);
            let (h, _) = client.open("g").unwrap();
            let mut last = 8;
            for _ in 0..20 {
                let bounds = client.extend(h, 0, 1).unwrap();
                assert_eq!(bounds[0], last + 1, "extends must serialize");
                last = bounds[0];
            }
        })
    };
    for h in handles {
        h.join().expect("reader panicked");
    }
    grower.join().expect("grower panicked");

    let mut client = Client::connect(&server);
    let (h, info) = client.open("g").unwrap();
    assert_eq!(info.bounds, vec![28, 8]);
    client.close(h).unwrap();
    server.flush_all().unwrap();
    let reopened = DrxFile::<i64>::open(&pfs, "g").unwrap();
    assert_eq!(reopened.bounds(), &[28, 8]);
}
