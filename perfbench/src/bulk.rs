//! `bulk`: one thread drives `DrxFile` on a grown 4096×2048 f64 array
//! (64 MiB in 2048 chunks of 64², 8× the 8 MiB L2) over a 4-server PFS
//! with a 64 KiB stripe, no emulated latency and one I/O worker.
//!
//! Memory-speed bulk I/O: PFS copy, buffer allocation and the copy kernels
//! block every operation; cache, lock and wire are absent.

use crate::common::*;
use crate::oracle::{Log, Oracle, LOG_SEED, LOG_STEPS, MAX_VERSION};
use crate::replay;
use drx_core::{Layout, Region};
use drx_mp::DrxFile;
use drx_pfs::{Pfs, PfsConfig};

const ROWS: usize = 4096;
const COLS: usize = 2048;
const SETUPS: usize = 3;
/// A 64×64 slice per append: enough work that its latency is not
/// dominated by cache and timer noise.
const LOG: Log = Log { side: 64 };

/// Alternating extends from 1024² up to 4096×2048.
const GROWTH: [usize; 8] = [0, 1, 0, 1, 0, 0, 0, 0];

pub fn pfs() -> Res<Pfs> {
    Pfs::new(PfsConfig {
        n_servers: 4,
        stripe_size: 64 << 10,
        io_workers: 1,
        ..PfsConfig::default()
    })
    .map_err(err("pfs"))
}

/// Create the 1024² array, grow it to 4096×2048 and populate it at
/// version 1.
pub fn grown_array(pfs: &Pfs, name: &str, oracle: &Oracle) -> Res<DrxFile<f64>> {
    let mut file =
        DrxFile::<f64>::create(pfs, name, &[64, 64], &[1024, 1024]).map_err(err("create"))?;
    for dim in GROWTH {
        file.extend(dim, 512).map_err(err("extend"))?;
    }
    let full = file.meta().element_region();
    let data = oracle.fill(&full, Layout::C, 1);
    oracle.begin(&full, 1);
    file.write_region(&full, Layout::C, &data).map_err(err("populate"))?;
    oracle.commit(&full, 1);
    Ok(file)
}

/// A time-series [`Log`] on `DrxFile`, restarted under a new name after
/// `LOG_STEPS` appends.
pub struct FileLog {
    geom: Log,
    prefix: String,
    gen: u32,
    file: DrxFile<f64>,
    t: usize,
}

impl FileLog {
    pub fn name(prefix: &str, gen: u32) -> String {
        format!("{prefix}-{gen}")
    }

    /// Create a log at its seed length, populated.
    pub fn create(pfs: &Pfs, name: &str, geom: Log) -> Res<DrxFile<f64>> {
        let dims = [LOG_SEED, geom.side, geom.side];
        let mut f =
            DrxFile::<f64>::create(pfs, name, &geom.chunk(), &dims).map_err(err("log create"))?;
        f.write_region(&geom.region(0, LOG_SEED), Layout::C, &geom.values(0, LOG_SEED))
            .map_err(err("log seed"))?;
        Ok(f)
    }

    pub fn new(pfs: &Pfs, prefix: &str, geom: Log) -> Res<FileLog> {
        let file = FileLog::create(pfs, &FileLog::name(prefix, 0), geom)?;
        Ok(FileLog { geom, prefix: prefix.to_string(), gen: 0, file, t: LOG_SEED })
    }

    /// When the log is full: verify it, delete it and start the next one.
    /// Returns the mismatching elements of the retired log.
    fn roll(&mut self, pfs: &Pfs) -> Res<usize> {
        if self.t < LOG_SEED + LOG_STEPS {
            return Ok(0);
        }
        let data = self
            .file
            .read_region(&self.geom.region(0, self.t), Layout::C)
            .map_err(err("log read"))?;
        let bad = self.geom.check(&data, self.t);
        DrxFile::<f64>::delete(pfs, &FileLog::name(&self.prefix, self.gen))
            .map_err(err("log delete"))?;
        self.gen += 1;
        self.file = FileLog::create(pfs, &FileLog::name(&self.prefix, self.gen), self.geom)?;
        self.t = LOG_SEED;
        Ok(bad)
    }

    /// `extend(0, 1)` plus the write of the new slice. Returns the surface
    /// time and whether the traced replay matched.
    fn append(&mut self, pfs: &Pfs, l: Option<&mut Layers>) -> Res<(f64, bool)> {
        let region = self.geom.region(self.t, self.t + 1);
        let data = self.geom.values(self.t, self.t + 1);
        let before = l.is_some().then(|| self.file.meta().clone());
        let (res, secs) = timed(|| -> drx_mp::Result<()> {
            self.file.extend(0, 1)?;
            self.file.write_region(&region, Layout::C, &data)
        });
        res.map_err(err("append"))?;
        self.t += 1;
        let mut ok = true;
        if let (Some(l), Some(before)) = (l, before) {
            let name = FileLog::name(&self.prefix, self.gen);
            ok &= replay::extend(&before, self.file.meta(), pfs, &name, 0, l)?;
            let meta = self.file.meta();
            ok &= replay::write_per_chunk(
                meta,
                self.file.payload_file(),
                &region,
                Layout::C,
                &data,
                l,
            )? == 0;
        }
        Ok((secs, ok))
    }
}

enum Op {
    Read(Region, Layout),
    Write(Region, Layout),
    Get(Vec<usize>),
    Set(Vec<usize>),
    Append,
}

fn region(lo: [usize; 2], hi: [usize; 2]) -> Region {
    Region::new(lo.to_vec(), hi.to_vec()).expect("bench region")
}

/// One cycle. Reads come first so a corrupted chunk is read before any
/// write can overwrite it. The counts put each reported percentile inside
/// one population rather than on a boundary between two: tile writes are
/// 78% of slab operations (p50), column bands hold p90; gets are 75% of
/// point operations (p50) and sets hold p90.
fn cycle(rng: &mut Rng, rows: &mut Sweep, cols: &mut Sweep) -> Vec<Op> {
    let full = region([0, 0], [ROWS, COLS]);
    let mut ops = vec![Op::Read(full.clone(), Layout::C), Op::Read(full.clone(), Layout::Fortran)];
    for _ in 0..4 {
        let r = rows.below(ROWS - 256 + 1);
        ops.push(Op::Read(region([r, 0], [r + 256, COLS]), Layout::C));
    }
    for _ in 0..4 {
        let c = cols.below(COLS - 128 + 1);
        ops.push(Op::Read(region([0, c], [ROWS, c + 128]), Layout::Fortran));
    }
    let point = |rng: &mut Rng| vec![rng.below(ROWS), rng.below(COLS)];
    ops.extend((0..192).map(|_| Op::Get(point(rng))));
    ops.push(Op::Write(full, Layout::C));
    for _ in 0..40 {
        // Unaligned tiles: partial-chunk read-modify-write.
        let (r, c) = (rng.below(ROWS - 200 + 1), rng.below(COLS - 150 + 1));
        ops.push(Op::Write(region([r, c], [r + 200, c + 150]), Layout::C));
    }
    ops.extend((0..64).map(|_| Op::Set(point(rng))));
    ops.extend((0..32).map(|_| Op::Append));
    ops
}

struct Bulk {
    pfs: Pfs,
    file: DrxFile<f64>,
    oracle: Oracle,
    version: u32,
    log: FileLog,
}

impl Bulk {
    fn setup() -> Res<Bulk> {
        let pfs = pfs()?;
        let oracle = Oracle::new(&[ROWS, COLS]);
        let file = grown_array(&pfs, "bulk", &oracle)?;
        let log = FileLog::new(&pfs, "bulk-log", LOG)?;
        Ok(Bulk { pfs, file, oracle, version: 1, log })
    }

    fn next_version(&mut self) -> u32 {
        assert!(self.version < MAX_VERSION);
        self.version += 1;
        self.version
    }

    fn exec(&mut self, op: &Op, rec: &mut Recorder, l: Option<&mut Layers>) -> Res<()> {
        match op {
            Op::Read(r, lay) => {
                let (out, secs) = timed(|| self.file.read_region(r, *lay));
                let out = out.map_err(err("read_region"))?;
                let mut bad = self.oracle.check(r, *lay, &out, None);
                if let Some(l) = l {
                    let rep = replay::read(self.file.meta(), self.file.payload_file(), r, *lay, l)?;
                    bad += usize::from(!same_bits(&rep, &out));
                }
                rec.record(Kind::Slab, secs, r.volume() * 8, 0, bad == 0);
            }
            Op::Write(r, lay) => {
                let v = self.next_version();
                let data = self.oracle.fill(r, *lay, v);
                self.oracle.begin(r, v);
                let (res, secs) = timed(|| self.file.write_region(r, *lay, &data));
                res.map_err(err("write_region"))?;
                self.oracle.commit(r, v);
                let mut bad = 0;
                if let Some(l) = l {
                    bad = replay::write_per_chunk(
                        self.file.meta(),
                        self.file.payload_file(),
                        r,
                        *lay,
                        &data,
                        l,
                    )?;
                }
                rec.record(Kind::Slab, secs, 0, r.volume() * 8, bad == 0);
            }
            Op::Get(idx) => {
                let (v, secs) = timed(|| self.file.get(idx));
                let v = v.map_err(err("get"))?;
                let r = region([idx[0], idx[1]], [idx[0] + 1, idx[1] + 1]);
                let mut bad = self.oracle.check(&r, Layout::C, &[v], None);
                if let Some(l) = l {
                    let rep = replay::get(self.file.meta(), self.file.payload_file(), idx, l)?;
                    bad += usize::from(rep.to_bits() != v.to_bits());
                }
                rec.record(Kind::Point, secs, 8, 0, bad == 0);
            }
            Op::Set(idx) => {
                let v = self.next_version();
                let r = region([idx[0], idx[1]], [idx[0] + 1, idx[1] + 1]);
                let value = self.oracle.fill(&r, Layout::C, v)[0];
                self.oracle.begin(&r, v);
                let (res, secs) = timed(|| self.file.set(idx, value));
                res.map_err(err("set"))?;
                self.oracle.commit(&r, v);
                let mut ok = true;
                if let Some(l) = l {
                    ok = replay::set(self.file.meta(), self.file.payload_file(), idx, value, l)?;
                }
                rec.record(Kind::Point, secs, 0, 8, ok);
            }
            Op::Append => {
                let bad = self.log.roll(&self.pfs)?;
                let (secs, ok) = self.log.append(&self.pfs, l)?;
                rec.record(Kind::Append, secs, 0, (LOG.side * LOG.side * 8) as u64, ok && bad == 0);
            }
        }
        Ok(())
    }

    fn phase(&mut self, rng: &mut Rng, secs: f64, mut l: Option<&mut Layers>) -> Res<Recorder> {
        let clock = Clock::start(secs);
        let mut rec = Recorder::default();
        let (mut rows, mut cols) = (Sweep::new(rng), Sweep::new(rng));
        while clock.running() {
            for op in &cycle(rng, &mut rows, &mut cols) {
                self.exec(op, &mut rec, l.as_deref_mut())?;
            }
        }
        Ok(rec)
    }
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let (mut b, setup_s) = setup_n(SETUPS, Bulk::setup)?;
    if cfg.corrupt {
        b.file.payload_file().write_at(0, &vec![0xA5; 64 * 64 * 8]).map_err(err("corrupt"))?;
    }
    let mut rng = Rng::new(cfg.seed);
    let before = Snap::take(&b.pfs);
    let untraced = b.phase(&mut rng, cfg.phase_secs(), None)?;
    let counters = Snap::take(&b.pfs).delta(&before);
    let traced = if cfg.trace {
        let mut l = Layers::default();
        let rec = b.phase(&mut rng, cfg.phase_secs(), Some(&mut l))?;
        Some((rec, l))
    } else {
        None
    };
    Ok(Outcome { setup_s, untraced, counters, traced })
}
