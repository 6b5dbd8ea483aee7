//! Windowed independent reads equal the in-memory reference.
//!
//! `DrxFile::read_region` and `DrxmpHandle::read_region` fetch a region one
//! staging window (one stripe round of the file system) at a time. Over
//! random grown shapes and stripe geometries — chunks that straddle stripe
//! and server boundaries, stripe rounds smaller than one chunk, windows
//! that hold dozens of chunks — with one or four I/O workers, or with a
//! fault injector firing transient read faults, both surfaces must return
//! exactly what `drx_core::ExtendibleArray::read_region` returns, in C and
//! FORTRAN order.

use drx_core::{ExtendibleArray, Layout, Region};
use drx_mp::error::to_msg;
use drx_mp::{DistSpec, DrxFile, DrxmpHandle};
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

/// Transient read faults (retried by the PFS), each firing once at the
/// first read at least `after + offset` storage operations into the run.
fn transient_read_faults(after: u64, faults: &[(u64, usize)]) -> Arc<Injector> {
    let kinds = [FaultKind::ShortRead, FaultKind::Interrupted, FaultKind::Delay { micros: 1 }];
    let events = faults
        .iter()
        .map(|&(offset, k)| Event {
            at_op: after + offset,
            domain: None,
            op: Some(Op::Read),
            kind: kinds[k],
        })
        .collect();
    Arc::new(Injector::new(Script { seed: 0, events }))
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
        faults in prop::collection::vec((0u64..12, 0usize..3), 1..4),
        corners in prop::collection::vec(((0.0f64..1.0, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0)), 1..4),
    ) {
        let (chunk, initial) = shape;
        // Stripes of 8..312 bytes against chunks of 8..288 bytes: most
        // chunks split across servers, and many stripe rounds are smaller
        // than one chunk. Mode 0: one I/O worker; 1: four; 2: one (forced
        // by the injector) with transient faults armed for the read phase.
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
            // run so every fault lands among the reads under test.
            let counter = Arc::new(Injector::inert());
            build(&Pfs::new(config(Some(Arc::clone(&counter)))).unwrap(), &chunk, &initial, &exts);
            transient_read_faults(counter.ops(), &faults)
        });
        let pfs = Pfs::new(config(injector.clone())).unwrap();
        let (file, mem) = build(&pfs, &chunk, &initial, &exts);

        let bounds = mem.bounds().to_vec();
        let mut regions = vec![mem.meta().element_region()];
        regions.extend(corners.iter().map(|&(a, b)| region_between(&bounds, a, b)));
        let mut expected = Vec::new();
        for region in &regions {
            for layout in [Layout::C, Layout::Fortran] {
                let want = mem.read_region(region, layout).unwrap();
                prop_assert_eq!(&file.read_region(region, layout).unwrap(), &want);
                expected.push(want);
            }
        }

        // Two ranks read the same regions independently, concurrently.
        let per_rank = run_spmd(2, |comm| {
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &pfs, "w", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
            let mut got = Vec::new();
            for region in &regions {
                for layout in [Layout::C, Layout::Fortran] {
                    got.push(h.read_region(region, layout).map_err(to_msg)?);
                }
            }
            Ok(got)
        })
        .unwrap();
        for got in per_rank {
            prop_assert_eq!(&got, &expected);
        }
        if let Some(injector) = injector {
            prop_assert!(!injector.fired().is_empty(), "no fault fired during the reads");
        }
    }
}
