//! Out-of-core blocked matrix multiply, Global-Array style: `C = A × B`
//! where A, B and C are disk-resident DRX arrays. Four ranks each own a
//! BLOCK zone of C; they stream panels of A and B from the parallel file
//! system (chunk-granular reads through `F*`), accumulate locally, and
//! write their C zones back with collective two-phase I/O.
//!
//! The same pattern then survives a *schema change*: B gains extra columns
//! (extending a non-record dimension — the operation the paper makes cheap),
//! C is extended to match, and only the new column-panel of C is computed.
//!
//! Run with: `cargo run --example oc_matmul` (use `--release` for speed)

use drx::parallel::{to_msg, DistSpec, DrxmpHandle};
use drx::serial::DrxFile;
use drx::{run_spmd, Layout, Pfs, Region};

// Dimensions chosen so every rank's band is chunk-aligned, as the paper
// partitions "always along chunk boundaries": each collective write then
// covers whole chunks, and adjacent chunks merge into one file block.
// Bands sharing a partial chunk would also work: each rank then writes
// only its own element rows of that chunk.
const M: usize = 64;
const K: usize = 40;
const N: usize = 32;
const PANEL: usize = 8;
const CHUNK: usize = 8;

fn a_val(i: usize, k: usize) -> f64 {
    ((i * 7 + k * 3) % 11) as f64 - 5.0
}

fn b_val(k: usize, j: usize) -> f64 {
    ((k * 5 + j * 2) % 13) as f64 - 6.0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pfs = Pfs::memory(4, 16 * 1024)?;

    // Producer: write A (M×K) and B (K×N) serially.
    {
        let mut a: DrxFile<f64> = DrxFile::create(&pfs, "A", &[CHUNK, CHUNK], &[M, K])?;
        a.fill_with(|idx| a_val(idx[0], idx[1]))?;
        let mut b: DrxFile<f64> = DrxFile::create(&pfs, "B", &[CHUNK, CHUNK], &[K, N])?;
        b.fill_with(|idx| b_val(idx[0], idx[1]))?;
        let _c: DrxFile<f64> = DrxFile::create(&pfs, "C", &[CHUNK, CHUNK], &[M, N])?;
    }

    // Parallel multiply: each rank owns a zone of C.
    let fs = pfs.clone();
    run_spmd(4, move |comm| {
        let dist = DistSpec::block(vec![2, 2]);
        let mut a: DrxmpHandle<f64> =
            DrxmpHandle::open(comm, &fs, "A", dist.clone()).map_err(to_msg)?;
        let mut b: DrxmpHandle<f64> =
            DrxmpHandle::open(comm, &fs, "B", dist.clone()).map_err(to_msg)?;
        let mut c: DrxmpHandle<f64> = DrxmpHandle::open(comm, &fs, "C", dist).map_err(to_msg)?;
        let zone = c.my_zone().expect("every rank owns a C zone");
        let (ri, rj) = (zone.lo()[0], zone.lo()[1]);
        let (mi, mj) = (zone.extents()[0], zone.extents()[1]);
        let mut acc = vec![0.0f64; mi * mj];
        // Panel loop over the contraction dimension.
        let mut kk = 0;
        while kk < K {
            let kw = PANEL.min(K - kk);
            let a_panel = a
                .read_region(&Region::new(vec![ri, kk], vec![ri + mi, kk + kw]).unwrap(), Layout::C)
                .map_err(to_msg)?;
            let b_panel = b
                .read_region(&Region::new(vec![kk, rj], vec![kk + kw, rj + mj]).unwrap(), Layout::C)
                .map_err(to_msg)?;
            for i in 0..mi {
                for kx in 0..kw {
                    let aik = a_panel[i * kw + kx];
                    for j in 0..mj {
                        acc[i * mj + j] += aik * b_panel[kx * mj + j];
                    }
                }
            }
            kk += kw;
        }
        c.write_region_all(Some((&zone, &acc)), Layout::C).map_err(to_msg)?;
        a.close().map_err(to_msg)?;
        b.close().map_err(to_msg)?;
        c.close().map_err(to_msg)?;
        Ok(())
    })?;

    // Verify against a straightforward serial product.
    let c: DrxFile<f64> = DrxFile::open(&pfs, "C")?;
    for i in (0..M).step_by(7) {
        for j in (0..N).step_by(5) {
            let want: f64 = (0..K).map(|k| a_val(i, k) * b_val(k, j)).sum();
            assert_eq!(c.get(&[i, j])?, want, "C[{i},{j}]");
        }
    }
    println!("parallel out-of-core product verified on a {M}×{K} · {K}×{N} multiply");
    drop(c);

    // Schema change: B gains 16 extra columns; extend C to match and compute
    // ONLY the new column-panel (no reorganization anywhere).
    {
        let mut b: DrxFile<f64> = DrxFile::open(&pfs, "B")?;
        b.extend(1, 16)?;
        let region = Region::new(vec![0, N], vec![K, N + 16])?;
        let data: Vec<f64> = region.iter().map(|idx| b_val(idx[0], idx[1])).collect();
        b.write_region(&region, Layout::C, &data)?;
        let mut c: DrxFile<f64> = DrxFile::open(&pfs, "C")?;
        c.extend(1, 16)?;
    }
    let fs = pfs.clone();
    run_spmd(4, move |comm| {
        let dist = DistSpec::block(vec![4, 1]);
        let mut a: DrxmpHandle<f64> =
            DrxmpHandle::open(comm, &fs, "A", dist.clone()).map_err(to_msg)?;
        let mut b: DrxmpHandle<f64> =
            DrxmpHandle::open(comm, &fs, "B", dist.clone()).map_err(to_msg)?;
        let mut c: DrxmpHandle<f64> = DrxmpHandle::open(comm, &fs, "C", dist).map_err(to_msg)?;
        // Each rank computes its row band of the NEW columns only.
        let rows = M / comm.size();
        let r0 = comm.rank() * rows;
        let new_cols = Region::new(vec![r0, N], vec![r0 + rows, N + 16]).unwrap();
        let a_band = a
            .read_region(&Region::new(vec![r0, 0], vec![r0 + rows, K]).unwrap(), Layout::C)
            .map_err(to_msg)?;
        let b_new = b
            .read_region(&Region::new(vec![0, N], vec![K, N + 16]).unwrap(), Layout::C)
            .map_err(to_msg)?;
        let mut acc = vec![0.0f64; rows * 16];
        for i in 0..rows {
            for k in 0..K {
                let aik = a_band[i * K + k];
                for j in 0..16 {
                    acc[i * 16 + j] += aik * b_new[k * 16 + j];
                }
            }
        }
        c.write_region_all(Some((&new_cols, &acc)), Layout::C).map_err(to_msg)?;
        a.close().map_err(to_msg)?;
        b.close().map_err(to_msg)?;
        c.close().map_err(to_msg)?;
        Ok(())
    })?;

    let c: DrxFile<f64> = DrxFile::open(&pfs, "C")?;
    assert_eq!(c.bounds(), &[M, N + 16]);
    for i in (0..M).step_by(11) {
        for j in (0..N + 16).step_by(9) {
            let want: f64 = (0..K).map(|k| a_val(i, k) * b_val(k, j)).sum();
            assert_eq!(c.get(&[i, j])?, want, "C[{i},{j}] after extension");
        }
    }
    println!("B and C extended by 16 columns; only the new panel was computed — old C intact");
    println!(
        "PFS totals: {} requests, {:.1} KiB moved",
        pfs.stats().total_requests(),
        pfs.stats().total_bytes() as f64 / 1024.0
    );
    Ok(())
}
