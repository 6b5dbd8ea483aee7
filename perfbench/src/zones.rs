//! `zones`: the paper's SPMD scenario. `run_spmd(2)` ranks drive
//! `DrxmpHandle` with `DistSpec::block([2,1])` on a 2048² f64 array grown
//! from 1024², over an 8-server PFS with a 64 KiB stripe, 200 µs emulated
//! request latency and 2 I/O workers.
//!
//! In this latency-bound regime time is set by request count, two-phase
//! exchange and I/O overlap, and barely by copy speed: a copy-kernel or
//! memory-backend gain should show on `bulk` and not here.

use crate::common::*;
use crate::oracle::{Log, Oracle, LOG_SEED, LOG_STEPS, MAX_VERSION};
use crate::replay;
use drx_core::{Layout, Region};
use drx_mp::{DistSpec, DrxmpHandle, XMD_SUFFIX, XTA_SUFFIX};
use drx_msg::{run_spmd, Comm, MsgError, ReduceOp};
use drx_pfs::{Pfs, PfsConfig, PfsFile};
use std::time::Duration;

const N: usize = 2048;
const SETUPS: usize = 3;
const LOG: Log = Log { side: 32 };

fn region(lo: [usize; 2], hi: [usize; 2]) -> Region {
    Region::new(lo.to_vec(), hi.to_vec()).expect("bench region")
}

fn delete_pair(pfs: &Pfs, base: &str) -> Res<()> {
    pfs.delete(&format!("{base}{XMD_SUFFIX}")).map_err(err("delete"))?;
    pfs.delete(&format!("{base}{XTA_SUFFIX}")).map_err(err("delete"))
}

/// The `(t, 32, 32)` log, appended collectively; rank 0 writes the slice.
struct ZoneLog {
    prefix: String,
    gen: u32,
    h: Option<DrxmpHandle<f64>>,
    t: usize,
}

impl ZoneLog {
    fn name(&self) -> String {
        format!("{}-{}", self.prefix, self.gen)
    }

    fn open(comm: &Comm, pfs: &Pfs, name: &str) -> Res<DrxmpHandle<f64>> {
        let dims = [LOG_SEED, LOG.side, LOG.side];
        let mut h = DrxmpHandle::<f64>::create(
            comm,
            pfs,
            name,
            &LOG.chunk(),
            &dims,
            DistSpec::block(vec![2, 1, 1]),
        )
        .map_err(err("log create"))?;
        let seed = LOG.region(0, LOG_SEED);
        let values = LOG.values(0, LOG_SEED);
        let mine = (comm.rank() == 0).then_some((&seed, values.as_slice()));
        h.write_region_all(mine, Layout::C).map_err(err("log seed"))?;
        Ok(h)
    }

    fn new(comm: &Comm, pfs: &Pfs, prefix: &str) -> Res<ZoneLog> {
        let mut log = ZoneLog { prefix: prefix.to_string(), gen: 0, h: None, t: LOG_SEED };
        log.h = Some(ZoneLog::open(comm, pfs, &log.name())?);
        Ok(log)
    }

    fn handle(&mut self) -> &mut DrxmpHandle<f64> {
        self.h.as_mut().expect("log is open")
    }

    /// Collective: retire a full log (rank 0 verifies and deletes it).
    fn roll(&mut self, comm: &Comm, pfs: &Pfs) -> Res<usize> {
        if self.t < LOG_SEED + LOG_STEPS {
            return Ok(0);
        }
        let t = self.t;
        let mut bad = 0;
        if comm.rank() == 0 {
            let data =
                self.handle().read_region(&LOG.region(0, t), Layout::C).map_err(err("log read"))?;
            bad = LOG.check(&data, t);
        }
        self.h.take().expect("log is open").close().map_err(err("log close"))?;
        if comm.rank() == 0 {
            delete_pair(pfs, &self.name())?;
        }
        comm.barrier().map_err(err("barrier"))?;
        self.gen += 1;
        self.h = Some(ZoneLog::open(comm, pfs, &self.name())?);
        self.t = LOG_SEED;
        Ok(bad)
    }

    /// Collective extend plus the slice write. Returns the extend and the
    /// write times separately so a traced run can replay the write.
    fn append(&mut self, comm: &Comm) -> Res<(f64, f64, Region, Vec<f64>)> {
        let region = LOG.region(self.t, self.t + 1);
        let data = LOG.values(self.t, self.t + 1);
        let h = self.handle();
        let (res, ext) = timed(|| h.extend(0, 1));
        res.map_err(err("log extend"))?;
        let mine = (comm.rank() == 0).then_some((&region, data.as_slice()));
        let (res, wr) = timed(|| h.write_region_all(mine, Layout::C));
        res.map_err(err("log write"))?;
        self.t += 1;
        Ok((ext, wr, region, data))
    }
}

enum Op {
    ZoneRead,
    BandRead(usize),
    TileRead(Region),
    Get(Vec<usize>),
    ZoneWrite,
    Set(Vec<usize>),
    Append,
}

/// One cycle. `band` places the collective band read (identical on both
/// ranks); `own` draws this rank's independent operations. Of the 25 slab
/// operations, the 22 tile reads hold p50 and the band read spans the
/// 88–92% ranks, so p90 falls in its middle rather than on a boundary
/// between two populations.
fn cycle(band: &mut Sweep, own: &mut Rng, zone: &Region) -> Vec<Op> {
    let mut ops = vec![Op::ZoneRead, Op::BandRead(band.below(N - 128 + 1))];
    for _ in 0..22 {
        let (r, c) = (own.below(N - 100 + 1), own.below(N - 75 + 1));
        ops.push(Op::TileRead(region([r, c], [r + 100, c + 75])));
    }
    ops.extend((0..32).map(|_| Op::Get(vec![own.below(N), own.below(N)])));
    ops.push(Op::ZoneWrite);
    let (lo, hi) = (zone.lo(), zone.hi());
    ops.extend((0..32).map(|_| {
        Op::Set(vec![lo[0] + own.below(hi[0] - lo[0]), lo[1] + own.below(hi[1] - lo[1])])
    }));
    ops.extend((0..8).map(|_| Op::Append));
    ops
}

struct Rank<'a> {
    comm: &'a Comm,
    pfs: &'a Pfs,
    oracle: &'a Oracle,
    h: DrxmpHandle<f64>,
    xta: PfsFile,
    zone: Region,
    log: ZoneLog,
    version: u32,
    /// Surface time of every traced collective, in call order.
    coll: Vec<f64>,
}

#[derive(Default)]
struct RankOut {
    setup_s: Vec<f64>,
    untraced: Recorder,
    counters: Snap,
    traced: Option<(Recorder, Layers)>,
    coll: Vec<f64>,
}

impl<'a> Rank<'a> {
    fn setup(comm: &'a Comm, pfs: &'a Pfs, oracle: &'a Oracle, s: usize) -> Res<Rank<'a>> {
        let name = format!("zones{s}");
        let mut h = DrxmpHandle::<f64>::create(
            comm,
            pfs,
            &name,
            &[64, 64],
            &[1024, 1024],
            DistSpec::block(vec![2, 1]),
        )
        .map_err(err("create"))?;
        for dim in [0, 1, 0, 1, 0, 1, 0, 1] {
            h.extend(dim, 256).map_err(err("extend"))?;
        }
        let zone = h.my_zone().ok_or("rank owns no zone")?;
        let data = oracle.fill(&zone, Layout::C, 1);
        oracle.begin(&zone, 1);
        h.write_my_zone(Layout::C, Some(&data)).map_err(err("populate"))?;
        oracle.commit(&zone, 1);
        let log = ZoneLog::new(comm, pfs, &format!("zlog{s}"))?;
        let xta = pfs.open(&format!("{name}{XTA_SUFFIX}")).map_err(err("open"))?;
        comm.barrier().map_err(err("barrier"))?;
        Ok(Rank { comm, pfs, oracle, h, xta, zone, log, version: 1, coll: Vec::new() })
    }

    /// Collective teardown of a set-up, so the next one starts clean.
    fn teardown(self, s: usize) -> Res<()> {
        let Rank { comm, pfs, h, mut log, .. } = self;
        h.close().map_err(err("close"))?;
        log.h.take().expect("log is open").close().map_err(err("log close"))?;
        if comm.rank() == 0 {
            delete_pair(pfs, &format!("zones{s}"))?;
            delete_pair(pfs, &log.name())?;
        }
        comm.barrier().map_err(err("barrier"))
    }

    fn next_version(&mut self) -> u32 {
        assert!(self.version < MAX_VERSION);
        self.version += 1;
        self.version
    }

    /// Start a collective on both ranks together, so its time is its own
    /// and not the other rank's lag in the independent operations (or the
    /// untimed oracle work) before it.
    fn sync(&self) -> Res<()> {
        self.comm.barrier().map_err(err("barrier"))
    }

    fn exec(&mut self, op: &Op, rec: &mut Recorder, l: Option<&mut Layers>) -> Res<()> {
        if matches!(op, Op::ZoneRead | Op::BandRead(_) | Op::ZoneWrite) {
            self.sync()?;
        }
        match op {
            Op::ZoneRead | Op::BandRead(_) | Op::TileRead(_) => {
                let (r, lay, collective) = match op {
                    Op::ZoneRead => (self.zone.clone(), Layout::C, true),
                    Op::BandRead(c) => (region([0, *c], [N, c + 128]), Layout::Fortran, true),
                    Op::TileRead(t) => (t.clone(), Layout::C, false),
                    _ => unreachable!(),
                };
                let snap = self.oracle.snapshot(&r);
                let h = &mut self.h;
                let (out, secs) = timed(|| match op {
                    Op::ZoneRead => {
                        h.read_my_zone(lay).map(|z| z.map(|(_, d)| d).unwrap_or_default())
                    }
                    Op::BandRead(_) => h.read_region_all(Some(&r), lay),
                    _ => h.read_region(&r, lay),
                });
                let out = out.map_err(err("read"))?;
                let mut bad = self.oracle.check(&r, lay, &out, Some(&snap));
                if let Some(l) = l {
                    // Sets happen only between the zone-write and append
                    // collectives, so no write can land between the read
                    // and its replay.
                    let mut mine = Layers::default();
                    let rep = replay::read(self.h.meta(), &self.xta, &r, lay, &mut mine)?;
                    bad += usize::from(!same_bits(&rep, &out));
                    if collective {
                        let own: f64 = SELF_TIMES.iter().map(|k| mine.get(k)).sum();
                        l.add("msg.read_all", secs - own);
                        self.coll.push(secs);
                    }
                    l.merge(&mine);
                }
                rec.record(Kind::Slab, secs, r.volume() * 8, 0, bad == 0);
            }
            Op::ZoneWrite => {
                let v = self.next_version();
                let zone = self.zone.clone();
                let data = self.oracle.fill(&zone, Layout::C, v);
                self.oracle.begin(&zone, v);
                let (res, secs) = timed(|| self.h.write_my_zone(Layout::C, Some(&data)));
                res.map_err(err("write_my_zone"))?;
                self.oracle.commit(&zone, v);
                let mut bad = 0;
                if let Some(l) = l {
                    let mut mine = Layers::default();
                    bad = replay::write_vectored(
                        self.h.meta(),
                        &self.xta,
                        &zone,
                        Layout::C,
                        &data,
                        &mut mine,
                    )?;
                    let own: f64 = SELF_TIMES.iter().map(|k| mine.get(k)).sum();
                    l.add("msg.write_all", secs - own);
                    l.merge(&mine);
                    self.coll.push(secs);
                }
                rec.record(Kind::Slab, secs, 0, zone.volume() * 8, bad == 0);
            }
            Op::Get(idx) => {
                let r = region([idx[0], idx[1]], [idx[0] + 1, idx[1] + 1]);
                let snap = self.oracle.snapshot(&r);
                let (v, secs) = timed(|| self.h.get(idx));
                let v = v.map_err(err("get"))?;
                let mut bad = self.oracle.check(&r, Layout::C, &[v], Some(&snap));
                if let Some(l) = l {
                    let rep = replay::get(self.h.meta(), &self.xta, idx, l)?;
                    // Another rank may set this element between the two
                    // reads; the replay then only has to be valid too.
                    let snap2 = self.oracle.snapshot(&r);
                    if rep.to_bits() != v.to_bits()
                        && self.oracle.check(&r, Layout::C, &[rep], Some(&snap2)) > 0
                    {
                        bad += 1;
                    }
                }
                rec.record(Kind::Point, secs, 8, 0, bad == 0);
            }
            Op::Set(idx) => {
                let v = self.next_version();
                let r = region([idx[0], idx[1]], [idx[0] + 1, idx[1] + 1]);
                let value = self.oracle.fill(&r, Layout::C, v)[0];
                self.oracle.begin(&r, v);
                let (res, secs) = timed(|| self.h.set(idx, value));
                res.map_err(err("set"))?;
                self.oracle.commit(&r, v);
                let mut ok = true;
                if let Some(l) = l {
                    ok = replay::set(self.h.meta(), &self.xta, idx, value, l)?;
                }
                rec.record(Kind::Point, secs, 0, 8, ok);
            }
            Op::Append => {
                let bad = self.log.roll(self.comm, self.pfs)?;
                self.sync()?;
                let (ext, wr, region, data) = self.log.append(self.comm)?;
                let mut ok = bad == 0;
                let written = if self.comm.rank() == 0 { data.len() as u64 * 8 } else { 0 };
                if let Some(l) = l {
                    // The collective extend is not replayed: its resize,
                    // metadata rewrite and barriers stay unattributed.
                    let mut mine = Layers::default();
                    if self.comm.rank() == 0 {
                        let name = self.log.name();
                        let xta =
                            self.pfs.open(&format!("{name}{XTA_SUFFIX}")).map_err(err("open"))?;
                        let meta = self.log.handle().meta().clone();
                        ok &= replay::write_vectored(
                            &meta,
                            &xta,
                            &region,
                            Layout::C,
                            &data,
                            &mut mine,
                        )? == 0;
                    }
                    let own: f64 = SELF_TIMES.iter().map(|k| mine.get(k)).sum();
                    l.add("msg.write_all", wr - own);
                    l.merge(&mine);
                    self.coll.push(ext + wr);
                }
                rec.record(Kind::Append, ext + wr, 0, written, ok);
            }
        }
        Ok(())
    }

    /// Both ranks run whole cycles until rank 0's clock says stop.
    fn phase(
        &mut self,
        shared: &mut Rng,
        own: &mut Rng,
        secs: f64,
        mut l: Option<&mut Layers>,
    ) -> Res<Recorder> {
        let clock = Clock::start(secs);
        let mut rec = Recorder::default();
        let mut band = Sweep::new(shared);
        loop {
            let go = u64::from(self.comm.rank() != 0 || clock.running());
            let go = self.comm.allreduce_u64(&[go], ReduceOp::Min).map_err(err("allreduce"))?;
            if go[0] == 0 {
                break;
            }
            let zone = self.zone.clone();
            for op in &cycle(&mut band, own, &zone) {
                self.exec(op, &mut rec, l.as_deref_mut())?;
            }
        }
        Ok(rec)
    }
}

fn rank_main(comm: &Comm, pfs: &Pfs, oracle: &Oracle, cfg: &Cfg) -> Res<RankOut> {
    let mut out = RankOut::default();
    let mut rank = None;
    for s in 0..SETUPS {
        if let Some(r) = rank.take() {
            Rank::teardown(r, s - 1)?;
        }
        comm.barrier().map_err(err("barrier"))?;
        let (r, secs) = timed(|| Rank::setup(comm, pfs, oracle, s));
        rank = Some(r?);
        out.setup_s.push(secs);
    }
    let mut rank = rank.expect("SETUPS > 0");
    if cfg.corrupt && comm.rank() == 0 {
        rank.xta.write_at(0, &vec![0xA5; 64 * 64 * 8]).map_err(err("corrupt"))?;
    }
    comm.barrier().map_err(err("barrier"))?;
    let mut shared = Rng::new(cfg.seed);
    let mut own = Rng::new(cfg.seed).fork(comm.rank() as u64 + 1);
    let before = Snap::take(pfs);
    let rec = rank.phase(&mut shared, &mut own, cfg.phase_secs(), None)?;
    comm.barrier().map_err(err("barrier"))?;
    out.counters = Snap::take(pfs).delta(&before);
    out.untraced = rec;
    if cfg.trace {
        let mut l = Layers::default();
        let rec = rank.phase(&mut shared, &mut own, cfg.phase_secs(), Some(&mut l))?;
        out.traced = Some((rec, l));
        out.coll = std::mem::take(&mut rank.coll);
    }
    Ok(out)
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    // The 16 MiB zone buffers and the growing two-phase exchange vectors
    // of both ranks are fresh `mmap` memory in every run.
    if !pin_allocator(128 << 10) {
        eprintln!("zones: allocator thresholds not pinned here; throughput varies more");
    }
    // The ranks and their I/O workers inherit it: a request sleeps the
    // configured latency, not that plus whatever the default slack adds.
    if !set_timer_slack_ns(1) {
        eprintln!("zones: timer slack not settable here; latencies include the default slack");
    }
    let pfs = Pfs::new(PfsConfig {
        n_servers: 8,
        stripe_size: 64 << 10,
        io_workers: 2,
        request_latency: Some(Duration::from_micros(200)),
        ..PfsConfig::default()
    })
    .map_err(err("pfs"))?;
    let oracle = Oracle::new(&[N, N]);
    let ranks = run_spmd(2, |comm| rank_main(comm, &pfs, &oracle, cfg).map_err(MsgError::Invalid))
        .map_err(err("spmd"))?;
    let mut untraced = Recorder::default();
    let mut traced: Option<(Recorder, Layers)> = None;
    for r in &ranks {
        untraced.merge(&r.untraced);
        if let Some((rec, l)) = &r.traced {
            let (tr, tl) = traced.get_or_insert_with(Default::default);
            tr.merge(rec);
            tl.merge(l);
        }
    }
    if let Some((_, l)) = traced.as_mut() {
        for (a, b) in ranks[0].coll.iter().zip(&ranks[1].coll) {
            l.add("msg.skew", (a - b).abs());
            l.add("n.collectives", 1.0);
        }
    }
    Ok(Outcome { setup_s: ranks[0].setup_s.clone(), untraced, counters: ranks[0].counters, traced })
}
