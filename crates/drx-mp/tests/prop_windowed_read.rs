//! Windowed independent reads and writes equal the in-memory reference.
//!
//! `DrxFile` and `DrxmpHandle` read and write a region one staging window
//! (one stripe round of the file system) at a time; a write reads back
//! only the partially covered chunks of each window. Over random grown
//! shapes and stripe geometries — chunks that straddle stripe and server
//! boundaries, stripe rounds smaller than one chunk, windows that hold
//! dozens of chunks — with one or four I/O workers, or with a fault
//! injector firing transient read and write faults, every surface must
//! agree exactly with `drx_core::ExtendibleArray`, in C and FORTRAN order:
//!
//! * reads through `DrxFile`, `CachedDrxFile` and two `DrxmpHandle` ranks;
//! * writes of random regions, in either layout, through `DrxFile` and
//!   through rank 0's `DrxmpHandle`. Regions clip edge chunks whose slack
//!   lies beyond the element bounds; a final extension brings that slack
//!   into bounds, so a staging byte that leaked into a partial chunk, in
//!   bounds or not, shows in the last comparison.

use drx_core::{ExtendibleArray, Layout, Region};
use drx_mp::error::to_msg;
use drx_mp::{CachedDrxFile, DistSpec, DrxFile, DrxmpHandle};
use drx_msg::run_spmd;
use drx_pfs::fault::{Event, FaultKind, Injector, Op, Script};
use drx_pfs::{Pfs, PfsConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn tag(idx: &[usize]) -> i64 {
    idx.iter().fold(3i64, |a, &i| a.wrapping_mul(977).wrapping_add(i as i64))
}

/// The region spanned by two fractional corners inside `bounds`.
fn region_between(bounds: &[usize], a: (f64, f64), b: (f64, f64)) -> Region {
    let at = |f: f64, n: usize| ((f * n as f64) as usize).min(n - 1);
    let (x, y) =
        ([at(a.0, bounds[0]), at(a.1, bounds[1])], [at(b.0, bounds[0]), at(b.1, bounds[1])]);
    let lo = vec![x[0].min(y[0]), x[1].min(y[1])];
    let hi = vec![x[0].max(y[0]) + 1, x[1].max(y[1]) + 1];
    Region::new(lo, hi).unwrap()
}

/// Transient faults (retried by the PFS), each firing once at the first
/// read (`reads`) or write (`writes`) at least `after + offset` storage
/// operations into the run.
fn transient_faults(after: u64, reads: &[(u64, usize)], writes: &[(u64, usize)]) -> Arc<Injector> {
    let read_kinds = [FaultKind::ShortRead, FaultKind::Interrupted, FaultKind::Delay { micros: 1 }];
    let write_kinds = [FaultKind::Interrupted, FaultKind::Delay { micros: 1 }];
    let event =
        |op, (offset, kind)| Event { at_op: after + offset, domain: None, op: Some(op), kind };
    let events = reads
        .iter()
        .map(|&(offset, k)| event(Op::Read, (offset, read_kinds[k])))
        .chain(writes.iter().map(|&(offset, k)| event(Op::Write, (offset, write_kinds[k]))))
        .collect();
    Arc::new(Injector::new(Script { seed: 0, events }))
}

/// Every region of `regions` in both layouts, read through `read`.
fn read_all(
    regions: &[Region],
    mut read: impl FnMut(&Region, Layout) -> drx_mp::Result<Vec<i64>>,
) -> Vec<Vec<i64>> {
    let layouts = [Layout::C, Layout::Fortran];
    regions.iter().flat_map(|r| layouts.map(|l| (r, l))).map(|(r, l)| read(r, l).unwrap()).collect()
}

/// Create, fill and grow the array on `pfs` (each extension's new band is
/// written), mirroring every step on the in-memory reference.
fn build(
    pfs: &Pfs,
    chunk: &[usize],
    initial: &[usize],
    exts: &[(usize, usize)],
) -> (DrxFile<i64>, ExtendibleArray<i64>) {
    let mut file: DrxFile<i64> = DrxFile::create(pfs, "w", chunk, initial).unwrap();
    let mut mem: ExtendibleArray<i64> = ExtendibleArray::new(chunk, initial).unwrap();
    file.fill_with(tag).unwrap();
    mem.fill_with(tag).unwrap();
    for &(dim, by) in exts {
        file.extend(dim, by).unwrap();
        mem.extend(dim, by).unwrap();
        let mut lo = vec![0; 2];
        lo[dim] = mem.bounds()[dim] - by;
        let band = Region::new(lo, mem.bounds().to_vec()).unwrap();
        let data: Vec<i64> = band.iter().map(|i| tag(&i) - 1).collect();
        file.write_region(&band, Layout::C, &data).unwrap();
        mem.write_region(&band, Layout::C, &data).unwrap();
    }
    (file, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn windowed_reads_match_reference(
        shape in (prop::collection::vec(1usize..7, 2), prop::collection::vec(1usize..9, 2)),
        exts in prop::collection::vec((0usize..2, 1usize..9), 0..5),
        geometry in (1usize..5, 1u64..40),
        mode in 0usize..3,
        read_faults in prop::collection::vec((0u64..12, 0usize..3), 1..4),
        write_faults in prop::collection::vec((0u64..12, 0usize..2), 1..3),
        corners in prop::collection::vec(((0.0f64..1.0, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0)), 1..4),
        writes in prop::collection::vec(
            (((0.0f64..1.0, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0)), any::<bool>(), any::<bool>(), any::<i64>()),
            1..5,
        ),
    ) {
        let (chunk, initial) = shape;
        // Stripes of 8..312 bytes against chunks of 8..288 bytes: most
        // chunks split across servers, and many stripe rounds are smaller
        // than one chunk. Mode 0: one I/O worker; 1: four; 2: one (forced
        // by the injector) with transient faults armed after the set-up.
        let (n_servers, stripe_elems) = geometry;
        let config = |injector| PfsConfig {
            n_servers,
            stripe_size: 8 * stripe_elems,
            io_workers: if mode == 1 { 4 } else { 1 },
            injector,
            ..PfsConfig::default()
        };
        let injector = (mode == 2).then(|| {
            // The set-up is deterministic: count its operations on a dry
            // run so every fault lands among the operations under test.
            let counter = Arc::new(Injector::inert());
            build(&Pfs::new(config(Some(Arc::clone(&counter)))).unwrap(), &chunk, &initial, &exts);
            transient_faults(counter.ops(), &read_faults, &write_faults)
        });
        let pfs = Pfs::new(config(injector.clone())).unwrap();
        let (mut file, mut mem) = build(&pfs, &chunk, &initial, &exts);

        let bounds = mem.bounds().to_vec();
        let mut regions = vec![mem.meta().element_region()];
        regions.extend(corners.iter().map(|&(a, b)| region_between(&bounds, a, b)));
        let expected = read_all(&regions, |r, l| Ok(mem.read_region(r, l)?));
        prop_assert_eq!(&read_all(&regions, |r, l| file.read_region(r, l)), &expected);
        let mut cached = CachedDrxFile::new(DrxFile::open(&pfs, "w").unwrap(), 3).unwrap();
        prop_assert_eq!(&read_all(&regions, |r, l| cached.read_region(r, l)), &expected);

        // Two ranks read the same regions independently, concurrently.
        let per_rank = run_spmd(2, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &pfs, "w", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
            Ok(read_all(&regions, |r, l| h.read_region(r, l)))
        })
        .unwrap();
        for got in per_rank {
            prop_assert_eq!(&got, &expected);
        }

        // Random region writes through `DrxFile` or rank 0's handle.
        for &((a, b), fortran, by_handle, seed) in &writes {
            let region = region_between(&bounds, a, b);
            let layout = if fortran { Layout::Fortran } else { Layout::C };
            let data: Vec<i64> =
                (0..region.volume() as i64).map(|i| seed.wrapping_add(i * 7919)).collect();
            mem.write_region(&region, layout, &data).unwrap();
            if by_handle {
                run_spmd(2, |comm| {
                    let mut h: DrxmpHandle<i64> =
                        DrxmpHandle::open(comm, &pfs, "w", DistSpec::block(vec![2, 1]))
                            .map_err(to_msg)?;
                    if comm.rank() == 0 {
                        h.write_region(&region, layout, &data).map_err(to_msg)?;
                    }
                    Ok(())
                })
                .unwrap();
            } else {
                file.write_region(&region, layout, &data).unwrap();
            }
        }
        let expected = read_all(&regions, |r, l| Ok(mem.read_region(r, l)?));
        prop_assert_eq!(&read_all(&regions, |r, l| file.read_region(r, l)), &expected);
        let mut cached = CachedDrxFile::new(DrxFile::open(&pfs, "w").unwrap(), 3).unwrap();
        prop_assert_eq!(&read_all(&regions, |r, l| cached.read_region(r, l)), &expected);

        // Bring every edge chunk's slack into bounds: it must still hold
        // the zeros the payload was created with.
        for (dim, &c) in chunk.iter().enumerate() {
            file.extend(dim, c).unwrap();
            mem.extend(dim, c).unwrap();
        }
        let full = [mem.meta().element_region()];
        let want = read_all(&full, |r, l| Ok(mem.read_region(r, l)?));
        prop_assert_eq!(&read_all(&full, |r, l| file.read_region(r, l)), &want);

        if let Some(injector) = injector {
            let fired = injector.fired();
            let fired_on = |op| fired.iter().any(|(_, e)| e.op == Some(op));
            prop_assert!(fired_on(Op::Read), "no read fault fired: {:?}", fired);
            prop_assert!(fired_on(Op::Write), "no write fault fired: {:?}", fired);
        }
    }
}
