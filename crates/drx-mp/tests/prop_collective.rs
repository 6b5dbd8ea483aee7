//! The collective DRX-MP paths agree with the serial `DrxFile` on random
//! grown shapes, in both memory layouts: `read_my_zone` and
//! `read_region_all` return what `DrxFile::read_region` returns, and files
//! written with `write_region_all` equal files written serially with
//! `write_region` byte for byte, edge-chunk slack included.

use drx_core::{Layout, Region};
use drx_mp::error::to_msg;
use drx_mp::{DistSpec, DrxFile, DrxmpHandle, XTA_SUFFIX};
use drx_msg::run_spmd;
use drx_pfs::{Pfs, PfsConfig};
use proptest::prelude::*;

fn tag(idx: &[usize]) -> i64 {
    idx.iter().fold(7i64, |a, &i| a.wrapping_mul(131).wrapping_add(i as i64))
}

fn pfs(stripe: u64, workers: usize) -> Pfs {
    Pfs::new(PfsConfig {
        n_servers: 3,
        stripe_size: stripe,
        io_workers: workers,
        ..PfsConfig::default()
    })
    .unwrap()
}

/// Create `name` with `chunk`/`initial`, fill it, and grow it by `exts`.
fn grown(fs: &Pfs, name: &str, chunk: &[usize], initial: &[usize], exts: &[(usize, usize)]) {
    let mut f: DrxFile<i64> = DrxFile::create(fs, name, chunk, initial).unwrap();
    f.fill_with(tag).unwrap();
    for &(dim, by) in exts {
        f.extend(dim, by).unwrap();
    }
}

/// A non-empty sub-region of `bounds` picked by fractions in `[0, 1)`.
fn region(bounds: &[usize], fr: &[(f64, f64)]) -> Region {
    let (lo, hi): (Vec<usize>, Vec<usize>) = bounds
        .iter()
        .zip(fr)
        .map(|(&b, &(a, c))| {
            let lo = ((a * b as f64) as usize).min(b - 1);
            (lo, lo + 1 + (c * (b - lo - 1) as f64) as usize)
        })
        .unzip();
    Region::new(lo, hi).unwrap()
}

fn layout(fortran: bool) -> Layout {
    if fortran {
        Layout::Fortran
    } else {
        Layout::C
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn collective_reads_match_serial(
        chunk in prop::collection::vec(1usize..4, 2),
        initial in prop::collection::vec(1usize..6, 2),
        exts in prop::collection::vec((0usize..2, 1usize..5), 0..5),
        ranks in 1usize..4,
        fracs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8),
        skip in prop::collection::vec(any::<bool>(), 4),
        stripe in 24u64..200,
        four_workers in any::<bool>(),
        fortran in any::<bool>(),
    ) {
        let fs = pfs(stripe, if four_workers { 4 } else { 1 });
        grown(&fs, "a", &chunk, &initial, &exts);
        let lay = layout(fortran);
        run_spmd(ranks, |comm| {
            let serial: DrxFile<i64> = DrxFile::open(&fs, "a").map_err(to_msg)?;
            let bounds = serial.bounds().to_vec();
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &fs, "a", DistSpec::auto(ranks, 2)).map_err(to_msg)?;
            if let Some((zone, data)) = h.read_my_zone(lay).map_err(to_msg)? {
                assert_eq!(data, serial.read_region(&zone, lay).map_err(to_msg)?);
            }
            // Random, possibly overlapping regions; some ranks sit out.
            let r = comm.rank();
            let mine = (!skip[r]).then(|| region(&bounds, &fracs[2 * r..2 * r + 2]));
            let data = h.read_region_all(mine.as_ref(), lay).map_err(to_msg)?;
            match &mine {
                Some(reg) => assert_eq!(data, serial.read_region(reg, lay).map_err(to_msg)?),
                None => assert!(data.is_empty()),
            }
            h.close().map_err(to_msg)
        })
        .unwrap();
    }

    #[test]
    fn collective_writes_match_serial(
        chunk in prop::collection::vec(1usize..4, 2),
        initial in prop::collection::vec(1usize..6, 2),
        exts in prop::collection::vec((0usize..2, 1usize..5), 0..5),
        ranks in 1usize..4,
        fracs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2),
        stripe in 24u64..200,
        four_workers in any::<bool>(),
        fortran in any::<bool>(),
    ) {
        let lay = layout(fortran);
        let (par, ser) = (pfs(stripe, if four_workers { 4 } else { 1 }), pfs(stripe, 1));
        grown(&par, "a", &chunk, &initial, &exts);
        grown(&ser, "a", &chunk, &initial, &exts);
        let mut serial: DrxFile<i64> = DrxFile::open(&ser, "a").unwrap();
        let bounds = serial.bounds().to_vec();
        // Every rank writes its zone; then rank 0 alone writes a random,
        // possibly chunk-unaligned region while the others pass nothing;
        // then every rank writes its own row band of that region (bands
        // may share partially covered chunks).
        let reg = region(&bounds, &fracs);
        let zones: Vec<Option<Region>> = run_spmd(ranks, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &par, "a", DistSpec::auto(ranks, 2)).map_err(to_msg)?;
            let zone = h.my_zone();
            let data = zone.as_ref().map(|z| vals(z, lay, 1));
            let mine = zone.as_ref().zip(data.as_deref());
            h.write_region_all(mine, lay).map_err(to_msg)?;
            let data = vals(&reg, lay, 2);
            let mine = (comm.rank() == 0).then_some((&reg, data.as_slice()));
            h.write_region_all(mine, lay).map_err(to_msg)?;
            let band = band(&reg, comm.rank(), ranks);
            let data = band.as_ref().map(|b| vals(b, lay, 3));
            h.write_region_all(band.as_ref().zip(data.as_deref()), lay).map_err(to_msg)?;
            h.close().map_err(to_msg)?;
            Ok(zone)
        })
        .unwrap();
        for zone in zones.iter().flatten() {
            serial.write_region(zone, lay, &vals(zone, lay, 1)).unwrap();
        }
        serial.write_region(&reg, lay, &vals(&reg, lay, 2)).unwrap();
        for b in (0..ranks).filter_map(|r| band(&reg, r, ranks)) {
            serial.write_region(&b, lay, &vals(&b, lay, 3)).unwrap();
        }
        let parallel: DrxFile<i64> = DrxFile::open(&par, "a").unwrap();
        prop_assert_eq!(parallel.read_full(Layout::C).unwrap(), serial.read_full(Layout::C).unwrap());
        let payload = |fs: &Pfs| {
            let xta = fs.open(&format!("a{XTA_SUFFIX}")).unwrap();
            xta.read_vec(0, xta.len() as usize).unwrap()
        };
        prop_assert_eq!(payload(&par), payload(&ser));
    }
}

/// Rank `rank`'s share of `reg`'s rows (dimension 0) split evenly over
/// `ranks`, or `None` when the share is empty.
fn band(reg: &Region, rank: usize, ranks: usize) -> Option<Region> {
    let (lo, n) = (reg.lo()[0], reg.extents()[0]);
    let (start, end) = (lo + n * rank / ranks, lo + n * (rank + 1) / ranks);
    let mut band_lo = reg.lo().to_vec();
    let mut band_hi = reg.hi().to_vec();
    (band_lo[0], band_hi[0]) = (start, end);
    (start < end).then(|| Region::new(band_lo, band_hi).unwrap())
}

/// Values for `reg` in memory layout `lay`, salted by `round`.
fn vals(reg: &Region, lay: Layout, round: i64) -> Vec<i64> {
    let mut out = vec![0i64; reg.volume() as usize];
    let strides = lay.strides(&reg.extents());
    for idx in reg.iter() {
        let pos: u64 =
            idx.iter().zip(reg.lo()).zip(&strides).map(|((&i, &l), &s)| (i - l) as u64 * s).sum();
        out[pos as usize] = tag(&idx) * 3 + round;
    }
    out
}
