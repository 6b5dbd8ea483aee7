//! `grow`: an in-process `Server` (`Client`) on a time series
//! `(t, 256, 256)` f64 in `(4, 64, 64)` chunks. Two sessions run in
//! parallel: an appender runs `extend(0, 1)` and writes the new time
//! slice (3 of 4 such writes are partial-chunk read-modify-write; every 64
//! steps a spatial extend adds axial records), and an analyst reads the
//! last 8 steps, the full-history time series at three random `(y, x)`
//! points (each crossing every axial segment) and single elements.
//!
//! The paper's headline extendibility: the extend path (metadata write
//! lock, cache flush, `.xmd` rewrite + sync, `set_len`), write
//! amplification and `F*` planning as axial records accumulate, with the
//! two sessions contending on metadata rather than chunk locks. No wire.
//! Every `PERIOD` steps the series restarts from its seed shape under a
//! fresh server, so per-operation cost stays stationary.

use crate::common::*;
use crate::oracle::encode;
use crate::replay::ServerShadow;
use drx_core::{ArrayMeta, Layout, Region};
use drx_mp::DrxFile;
use drx_pfs::Pfs;
use drx_server::{Client, Server, ServerConfig, StatReply};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const Y0: usize = 256;
const X0: usize = 256;
const CHUNK: [usize; 3] = [4, 64, 64];
const SEED_T: usize = 4;
const PERIOD: usize = 128;
const SPATIAL_EVERY: usize = 64;
const SPATIAL_BY: usize = 64;
const CACHE_CHUNKS: usize = 256;
const SETUPS: usize = 31;
const BITS: u32 = 28; // code = t << 18 | y << 9 | x, with t < 2^10 and y, x < 2^9

fn value(t: usize, y: usize, x: usize) -> f64 {
    encode(1, (t << 18 | y << 9 | x) as u64, BITS)
}

/// Expected row-major contents of `r`: slice `t` was written over
/// `extents[t]` and is zero beyond it.
fn expected(r: &Region, extents: &[(usize, usize)]) -> Vec<f64> {
    let (lo, hi) = (r.lo(), r.hi());
    let mut out = Vec::with_capacity(r.volume() as usize);
    for (t, &(ny, nx)) in extents.iter().enumerate().take(hi[0]).skip(lo[0]) {
        for y in lo[1]..hi[1] {
            for x in lo[2]..hi[2] {
                out.push(if y < ny && x < nx { value(t, y, x) } else { 0.0 });
            }
        }
    }
    out
}

fn region(lo: [usize; 3], hi: [usize; 3]) -> Region {
    Region::new(lo.to_vec(), hi.to_vec()).expect("bench region")
}

fn dims(v: &[usize]) -> Vec<u64> {
    v.iter().map(|&x| x as u64).collect()
}

/// One generation of the series: its server, array and published state.
#[derive(Clone)]
struct Gen {
    id: u64,
    server: Server,
    name: String,
    meta: Arc<ArrayMeta>,
    /// Committed time steps; `extents[t]` is the spatial extent slice `t`
    /// was written with.
    t: usize,
    extents: Arc<Vec<(usize, usize)>>,
    shadow: Option<Arc<ServerShadow>>,
}

fn create_gen(pfs: &Pfs, id: u64, traced: bool) -> Res<Gen> {
    let name = format!("grow{id}");
    let mut f =
        DrxFile::<f64>::create(pfs, &name, &CHUNK, &[SEED_T, Y0, X0]).map_err(err("create"))?;
    let seed = region([0, 0, 0], [SEED_T, Y0, X0]);
    let extents = vec![(Y0, X0); SEED_T];
    f.write_region(&seed, Layout::C, &expected(&seed, &extents)).map_err(err("seed"))?;
    let meta = Arc::new(f.meta().clone());
    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: CACHE_CHUNKS });
    let shadow = if traced {
        let xta = pfs.open(&format!("{name}{}", drx_mp::XTA_SUFFIX)).map_err(err("open"))?;
        Some(Arc::new(ServerShadow::new(&xta, meta.chunk_bytes() as usize, CACHE_CHUNKS)?))
    } else {
        None
    };
    Ok(Gen { id, server, name, meta, t: SEED_T, extents: Arc::new(extents), shadow })
}

struct Shared {
    pfs: Pfs,
    /// Held shared by the analyst for each operation and exclusively by
    /// the appender while it swaps generations, so no read straddles one.
    gen_lock: RwLock<()>,
    /// Set while the appender waits to swap generations; the analyst then
    /// stops taking `gen_lock`, which would otherwise starve the writer.
    swapping: AtomicBool,
    state: Mutex<Gen>,
    /// Cache and lock counters of retired generations.
    retired: Mutex<Snap>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("benchmark state lock poisoned")
}

fn add_stat(s: &mut Snap, st: &StatReply) {
    s.cache.merge(&st.global_cache);
    s.batches += st.coalesced_batches;
    s.lock_waits += st.lock_waits;
}

fn open(g: &Gen) -> Res<(Client, u32)> {
    let mut c = Client::connect(&g.server);
    let (h, _) = c.open(&g.name).map_err(err("open"))?;
    Ok((c, h))
}

/// Counters now: PFS and kernel from the benchmark's snapshot, cache and
/// lock from `Stat` on the live generation plus the retired ones.
fn snap(sh: &Shared) -> Res<Snap> {
    let mut s = Snap::take(&sh.pfs);
    let r = *lock(&sh.retired);
    s.cache = r.cache;
    s.batches = r.batches;
    s.lock_waits = r.lock_waits;
    let g = lock(&sh.state).clone();
    let (mut c, h) = open(&g)?;
    add_stat(&mut s, &c.stat(h).map_err(err("stat"))?);
    c.close(h).map_err(err("close"))?;
    Ok(s)
}

fn appender(
    sh: &Shared,
    clock: &Clock,
    traced: bool,
    rec: &mut Recorder,
    l: &mut Layers,
) -> Res<()> {
    let mut g = lock(&sh.state).clone();
    let (mut client, mut h) = open(&g)?;
    // A traced phase starts a fresh generation, whose shadow mirrors every
    // write from its seed on.
    let mut step = if traced { PERIOD } else { g.t - SEED_T };
    while clock.running() {
        if step == PERIOD {
            let st = client.stat(h).map_err(err("stat"))?;
            add_stat(&mut lock(&sh.retired), &st);
            client.close(h).map_err(err("close"))?;
            drop(client);
            sh.swapping.store(true, Ordering::SeqCst);
            let _swap = sh.gen_lock.write().expect("generation lock poisoned");
            let next = create_gen(&sh.pfs, g.id + 1, traced)?;
            *lock(&sh.state) = next.clone();
            DrxFile::<f64>::delete(&sh.pfs, &g.name).map_err(err("delete"))?;
            g = next;
            (client, h) = open(&g)?;
            sh.swapping.store(false, Ordering::SeqCst);
            step = 0;
        }
        let t = g.t;
        let (mut ny, mut nx) = *g.extents.last().expect("seeded");
        let spatial = step > 0 && step.is_multiple_of(SPATIAL_EVERY);
        let dim = 1 + (g.id % 2) as u32;
        if spatial {
            if dim == 1 {
                ny += SPATIAL_BY;
            } else {
                nx += SPATIAL_BY;
            }
        }
        let slice = region([t, 0, 0], [t + 1, ny, nx]);
        let data = expected(&slice, &[(ny, nx)].repeat(t + 1));
        let secs = if traced {
            // The extend's own flush is split out as cache.flush by
            // flushing first; the extend then finds nothing dirty.
            let (res, flush) = timed(|| g.server.flush_all());
            res.map_err(err("flush"))?;
            l.add("cache.flush", flush);
            let (res, ext) = timed(|| -> drx_server::Result<()> {
                if spatial {
                    client.extend(h, dim, SPATIAL_BY as u64)?;
                }
                client.extend(h, 0, 1).map(drop)
            });
            res.map_err(err("extend"))?;
            l.add("server.extend", ext);
            let (res, wr) = timed(|| {
                client.write_region_from::<f64>(h, &dims(slice.lo()), &dims(slice.hi()), &data)
            });
            res.map_err(err("write"))?;
            let meta = crate::serve::read_meta(&sh.pfs, &g.name)?;
            let shadow = g.shadow.as_ref().expect("traced generations have a shadow");
            shadow.extend(&meta)?;
            shadow.write(&meta, &slice, &le_bytes(&data), l)?;
            l.add("server.handle", ext + wr);
            flush + ext + wr
        } else {
            let (res, secs) = timed(|| -> drx_server::Result<()> {
                if spatial {
                    client.extend(h, dim, SPATIAL_BY as u64)?;
                }
                client.extend(h, 0, 1)?;
                client.write_region_from::<f64>(h, &dims(slice.lo()), &dims(slice.hi()), &data)
            });
            res.map_err(err("append"))?;
            secs
        };
        let meta = Arc::new(crate::serve::read_meta(&sh.pfs, &g.name)?);
        {
            let mut st = lock(&sh.state);
            let mut ext = (*st.extents).clone();
            ext.push((ny, nx));
            st.extents = Arc::new(ext);
            st.t = t + 1;
            st.meta = meta;
            g = st.clone();
        }
        rec.record(Kind::Append, secs, 0, slice.volume() * 8, true);
        step += 1;
    }
    client.close(h).map_err(err("close"))
}

fn analyst(
    sh: &Shared,
    clock: &Clock,
    rng: &mut Rng,
    traced: bool,
    rec: &mut Recorder,
    l: &mut Layers,
) -> Res<()> {
    let mut cur: Option<(u64, Client, u32)> = None;
    while clock.running() {
        if sh.swapping.load(Ordering::SeqCst) {
            std::thread::yield_now();
            continue;
        }
        let _op = sh.gen_lock.read().expect("generation lock poisoned");
        let g = lock(&sh.state).clone();
        if traced && g.shadow.is_none() {
            // The appender has not yet started the traced generation.
            drop(_op);
            std::thread::yield_now();
            continue;
        }
        if cur.as_ref().map(|c| c.0) != Some(g.id) {
            let (c, h) = open(&g)?;
            cur = Some((g.id, c, h));
        }
        let (_, client, h) = cur.as_mut().expect("connected");
        let (ny, nx) = *g.extents.last().expect("seeded");
        // Three time series per window read put slab p50 inside the time
        // series population rather than on its boundary with the windows.
        let mut ops = vec![(region([g.t.saturating_sub(8), 0, 0], [g.t, ny, nx]), Kind::Slab)];
        for _ in 0..3 {
            let (y, x) = (rng.below(ny), rng.below(nx));
            ops.push((region([0, y, x], [g.t, y + 1, x + 1]), Kind::Slab));
        }
        for _ in 0..4 {
            let (t, y, x) = (rng.below(g.t), rng.below(ny), rng.below(nx));
            ops.push((region([t, y, x], [t + 1, y + 1, x + 1]), Kind::Point));
        }
        for (r, kind) in ops {
            let (out, secs) =
                timed(|| client.read_region_as::<f64>(*h, &dims(r.lo()), &dims(r.hi())));
            let out = out.map_err(err("read"))?;
            let mut ok = same_bits(&out, &expected(&r, &g.extents));
            if let Some(shadow) = g.shadow.as_ref().filter(|_| traced) {
                ok &= shadow.read(&g.meta, &r, l)? == le_bytes(&out);
                l.add("server.handle", secs);
            }
            rec.record(kind, secs, r.volume() * 8, 0, ok);
        }
    }
    if let Some((_, mut c, h)) = cur {
        c.close(h).map_err(err("close"))?;
    }
    Ok(())
}

/// Run both sessions for `secs`.
fn phase(sh: &Shared, rng: &mut Rng, secs: f64, traced: bool) -> Res<(Recorder, Layers)> {
    let clock = Clock::start(secs);
    let mut arng = rng.fork(2);
    let (a, b) = std::thread::scope(|scope| {
        let app = scope.spawn(|| {
            let (mut rec, mut l) = (Recorder::default(), Layers::default());
            appender(sh, &clock, traced, &mut rec, &mut l).map(|()| (rec, l))
        });
        let ana = scope.spawn(|| {
            let (mut rec, mut l) = (Recorder::default(), Layers::default());
            analyst(sh, &clock, &mut arng, traced, &mut rec, &mut l).map(|()| (rec, l))
        });
        (app.join().expect("appender panicked"), ana.join().expect("analyst panicked"))
    });
    let ((mut rec, mut l), (rb, lb)) = (a?, b?);
    rec.merge(&rb);
    l.merge(&lb);
    Ok((rec, l))
}

fn setup() -> Res<Shared> {
    let pfs = crate::bulk::pfs()?;
    let g = create_gen(&pfs, 0, false)?;
    // Start both sessions once so set-up includes opening the array.
    let (mut c, h) = open(&g)?;
    c.close(h).map_err(err("close"))?;
    Ok(Shared {
        pfs,
        gen_lock: RwLock::new(()),
        swapping: AtomicBool::new(false),
        state: Mutex::new(g),
        retired: Mutex::new(Snap::default()),
    })
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let (sh, setup_s) = setup_n(SETUPS, setup)?;
    if cfg.corrupt {
        // Every seed chunk: each time-series read crosses one of them.
        let name = lock(&sh.state).name.clone();
        let xta = sh.pfs.open(&format!("{name}{}", drx_mp::XTA_SUFFIX)).map_err(err("open"))?;
        let cb = (CHUNK.iter().product::<usize>() * 8) as u64;
        for addr in 0..(Y0 / CHUNK[1] * X0 / CHUNK[2]) as u64 {
            xta.write_at(addr * cb, &vec![0xA5; cb as usize]).map_err(err("corrupt"))?;
        }
    }
    let mut rng = Rng::new(cfg.seed);
    let before = snap(&sh)?;
    let (untraced, _) = phase(&sh, &mut rng, cfg.phase_secs(), false)?;
    let counters = snap(&sh)?.delta(&before);
    let traced = if cfg.trace {
        let (rec, l) = phase(&sh, &mut rng, cfg.phase_secs(), true)?;
        Some((rec, l))
    } else {
        None
    };
    Ok(Outcome { setup_s, untraced, counters, traced })
}
