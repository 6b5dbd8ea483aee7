//! Demo: several clients hammer one DRX array through `drx-server`.
//!
//! Spawns an in-process server over a memory-backed PFS, serves it on a
//! loopback TCP port, and runs a mix of in-process and TCP clients that
//! concurrently read, write and extend the same array. Afterwards it checks
//! every band and the zero-filled extension, and prints the server-side
//! statistics showing how the shared chunk cache and its run-coalesced
//! fetches cut the PFS request count below one request per chunk access.
//!
//! Run with: `cargo run --example concurrent_clients` (it exits nonzero if
//! a check fails).

use drx::serial::DrxFile;
use drx::server::{serve, Client, Server, ServerConfig, TcpClient};
use drx::Pfs;
use std::thread;

const ROWS: u64 = 24;
const COLS: u64 = 16;

fn main() {
    let pfs = Pfs::memory(4, 4096).expect("pfs");
    DrxFile::<f64>::create(&pfs, "grid", &[4, 4], &[ROWS as usize, COLS as usize]).expect("create");

    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: 48 });
    let handle = serve(&server, "127.0.0.1:0", 2).expect("serve");
    let addr = handle.addr();
    println!("serving \"grid\" on {addr}");
    // The reporting session holds the array open throughout: an array is
    // retired, with its cache and counters, when its last handle closes.
    let mut client = Client::connect(&server);
    let (h, _) = client.open("grid").expect("open");
    pfs.reset_stats();

    // Eight workers: even ones connect in-process, odd ones over TCP.
    // Each owns a band of three rows, writes it, reads the whole array a
    // few times (shared cache!), and one of them grows the column bound.
    let mut workers = Vec::new();
    for t in 0..8u64 {
        let server = server.clone();
        workers.push(thread::spawn(move || {
            if t % 2 == 0 {
                run(&mut Client::connect(&server), t);
            } else {
                run(&mut TcpClient::connect(addr).expect("connect"), t);
            }
        }));
    }
    for w in workers {
        w.join().expect("worker panicked");
    }

    // Report.
    let stat = client.stat(h).expect("stat");
    println!("final bounds          : {:?}", stat.bounds);
    println!("chunk shape           : {:?}", stat.chunk_shape);
    println!("cache hits / misses   : {} / {}", stat.global_cache.hits, stat.global_cache.misses);
    println!("coalesced batches     : {}", stat.coalesced_batches);
    println!("pfs requests          : {}", stat.pfs_requests);
    println!("lock waits            : {}", stat.lock_waits);
    let naive = stat.global_cache.hits + stat.global_cache.misses;
    println!("(naive per-chunk I/O would have issued ~{naive} requests)");
    assert!(stat.pfs_requests < naive, "{} PFS requests, naive {naive}", stat.pfs_requests);

    // Every band holds its writer's value; the extended columns read zero.
    let cols = stat.bounds[1];
    assert_eq!(cols, COLS + 4);
    let all = client.read_region_as::<f64>(h, &[0, 0], &[ROWS, cols]).expect("read");
    for (r, row) in all.chunks(cols as usize).enumerate() {
        let (band, extension) = row.split_at(COLS as usize);
        assert!(band.iter().all(|&v| v == (r / 3 + 1) as f64), "row {r}: {band:?}");
        assert!(extension.iter().all(|&v| v == 0.0), "row {r}: {extension:?}");
    }
    println!("all {ROWS} rows checked");
    client.close(h).expect("close");
    handle.shutdown().expect("shutdown");
}

fn run<T: drx::server::Transport>(client: &mut drx::server::Conn<T>, t: u64) {
    let (h, _) = client.open("grid").expect("open");
    let r0 = t * 3;
    let band = vec![(t + 1) as f64; (3 * COLS) as usize];
    client.write_region_from::<f64>(h, &[r0, 0], &[r0 + 3, COLS], &band).expect("write");
    // No other worker writes these rows.
    let back = client.read_region_as::<f64>(h, &[r0, 0], &[r0 + 3, COLS]).expect("read band");
    assert_eq!(back, band, "worker {t} band");
    for _ in 0..4 {
        let all = client.read_region_as::<f64>(h, &[0, 0], &[ROWS, COLS]).expect("read");
        assert_eq!(all.len(), (ROWS * COLS) as usize);
    }
    if t == 3 {
        let bounds = client.extend(h, 1, 4).expect("extend");
        println!("worker {t} extended columns to {}", bounds[1]);
    }
    client.close(h).expect("close");
}
