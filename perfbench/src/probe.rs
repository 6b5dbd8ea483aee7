//! The 1024² probe: 1024² f64 in 64² chunks over 4 memory-backed servers
//! with a 64 KiB stripe. Measures a `DrxFile` full read and its replayed
//! layers, the first touch of two fresh 8 MiB buffers, the server's full
//! read in-process and over TCP, and 1-element reads on both transports.

use crate::common::*;
use crate::oracle::Oracle;
use crate::replay;
use drx_core::{Layout, Region};
use drx_mp::DrxFile;
use drx_server::{serve_with, Client, ServeConfig, Server, ServerConfig, TcpClient};
use std::hint::black_box;

const N: usize = 1024;
const REPS: usize = 21;
const POINTS: usize = 2000;

fn line(name: &str, value: f64, unit: &str) {
    println!("probe {name:<32} {value:>12.3} {unit}");
}

pub fn run() -> Res<()> {
    let pfs = crate::bulk::pfs()?;
    let oracle = Oracle::new(&[N, N]);
    let full = Region::new(vec![0, 0], vec![N, N]).map_err(err("region"))?;
    let mut f = DrxFile::<f64>::create(&pfs, "probe", &[64, 64], &[N, N]).map_err(err("create"))?;
    let data = oracle.fill(&full, Layout::C, 1);
    oracle.begin(&full, 1);
    f.write_region(&full, Layout::C, &data).map_err(err("populate"))?;
    oracle.commit(&full, 1);

    let mut reads = Vec::new();
    let mut l = Layers::default();
    for _ in 0..REPS {
        let (out, secs) = timed(|| f.read_region(&full, Layout::C));
        let out = out.map_err(err("read"))?;
        if oracle.check(&full, Layout::C, &out, None) > 0 {
            return Err("DrxFile full read returned wrong data".into());
        }
        drop(out);
        reads.push(secs * 1e3);
        let rep = replay::read(f.meta(), f.payload_file(), &full, Layout::C, &mut l)?;
        black_box(rep);
    }
    // The first iteration pays the fresh buffers' page faults; later ones
    // reuse memory the allocator kept.
    line("drxfile_full_read_first_ms", reads[0], "ms");
    line("drxfile_full_read_ms", median(&reads), "ms");
    for k in ["core.plan", "mp.alloc", "pfs.read", "mp.kernel"] {
        line(&format!("replay.{k}_ms"), l.get(k) / REPS as f64 * 1e3, "ms");
    }

    let mut touch = Vec::new();
    for _ in 0..REPS {
        let ((), secs) = timed(|| {
            let mut a = vec![0u8; 8 << 20];
            let mut b = vec![0.0f64; 1 << 20];
            for i in (0..a.len()).step_by(4096) {
                a[i] = 1;
            }
            for i in (0..b.len()).step_by(512) {
                b[i] = 1.0;
            }
            black_box((&a, &b));
        });
        touch.push(secs * 1e3);
    }
    line("first_touch_2x8MiB_first_ms", touch[0], "ms");
    line("first_touch_2x8MiB_ms", median(&touch), "ms");

    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: 256 });
    let serving =
        serve_with(&server, "127.0.0.1:0", ServeConfig { threads: 1, ..ServeConfig::default() })
            .map_err(err("serve"))?;
    let mut local = Client::connect(&server);
    let (hl, _) = local.open("probe").map_err(err("open"))?;
    let mut tcp = TcpClient::connect(serving.addr()).map_err(err("connect"))?;
    let (ht, _) = tcp.open("probe").map_err(err("open"))?;
    let (lo, hi) = ([0u64, 0], [N as u64, N as u64]);
    let mut in_proc = Vec::new();
    let mut over_tcp = Vec::new();
    for _ in 0..REPS {
        let (out, secs) = timed(|| local.read_region(hl, &lo, &hi));
        if f64s(&out.map_err(err("read"))?) != data {
            return Err("in-process full read returned wrong data".into());
        }
        in_proc.push(secs * 1e3);
        let (out, secs) = timed(|| tcp.read_region(ht, &lo, &hi));
        if f64s(&out.map_err(err("read"))?) != data {
            return Err("TCP full read returned wrong data".into());
        }
        over_tcp.push(secs * 1e3);
    }
    line("server_full_read_inproc_ms", median(&in_proc), "ms");
    line("server_full_read_tcp_ms", median(&over_tcp), "ms");
    line("tcp_over_inproc_full_read", median(&over_tcp) / median(&in_proc), "x");

    let mut rng = Rng::new(1);
    let mut p_local = Vec::new();
    let mut p_tcp = Vec::new();
    for _ in 0..POINTS {
        let (i, j) = (rng.below(N) as u64, rng.below(N) as u64);
        let (a, b) = ([i, j], [i + 1, j + 1]);
        let (out, secs) = timed(|| local.read_region(hl, &a, &b));
        black_box(out.map_err(err("get"))?);
        p_local.push(secs * 1e6);
        let (out, secs) = timed(|| tcp.read_region(ht, &a, &b));
        black_box(out.map_err(err("get"))?);
        p_tcp.push(secs * 1e6);
    }
    line("point_read_inproc_us", median(&p_local), "us");
    line("point_read_tcp_us", median(&p_tcp), "us");
    drop(tcp);
    drop(local);
    serving.shutdown().map_err(err("shutdown"))
}
