//! Checkpoint/restart with a growing state array: an iterative solver
//! appends one state snapshot per checkpoint to a `(step, cell)` extendible
//! array on real disk, "crashes", and a new process restarts from the last
//! complete snapshot. Extending the step dimension is an append — no
//! rewriting of earlier checkpoints — and corrupted metadata is detected at
//! restart rather than silently mis-addressing.
//!
//! Run with: `cargo run --example checkpoint_restart`

use drx::serial::{ArrayStore, DrxFile};
use drx::{Backing, CostModel, Layout, Pfs, PfsConfig, Region};

const CELLS: usize = 256;
const CHECKPOINT_EVERY: usize = 10;

/// One explicit diffusion step on a ring.
fn step(state: &mut [f64]) {
    let n = state.len();
    let prev = state.to_vec();
    for i in 0..n {
        state[i] = 0.5 * prev[i] + 0.25 * prev[(i + n - 1) % n] + 0.25 * prev[(i + 1) % n];
    }
}

fn open_pfs(dir: &std::path::Path) -> Result<Pfs, Box<dyn std::error::Error>> {
    Ok(Pfs::new(PfsConfig {
        n_servers: 2,
        stripe_size: 4096,
        cost: CostModel::flat(1000, 1.0),
        backing: Backing::Disk(dir.to_path_buf()),
        ..PfsConfig::default()
    })?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("drx-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // ---- Phase 1: run 35 steps, checkpointing every 10 — then "crash". ----
    let written_checkpoints;
    {
        let pfs = open_pfs(&dir)?;
        // One snapshot row initially (the initial condition).
        let mut ckpt: DrxFile<f64> = DrxFile::create(&pfs, "state", &[1, 64], &[1, CELLS])?;
        let mut state: Vec<f64> =
            (0..CELLS).map(|i| if i == CELLS / 2 { 1000.0 } else { 0.0 }).collect();
        let snap0 = Region::new(vec![0, 0], vec![1, CELLS])?;
        ckpt.write_region(&snap0, Layout::C, &state)?;

        let mut snapshots = 1;
        for s in 1..=35 {
            step(&mut state);
            if s % CHECKPOINT_EVERY == 0 {
                ckpt.extend(0, 1)?; // append one snapshot row
                let row = Region::new(vec![snapshots, 0], vec![snapshots + 1, CELLS])?;
                ckpt.write_region(&row, Layout::C, &state)?;
                snapshots += 1;
                println!("checkpointed step {s} (snapshot {})", snapshots - 1);
            }
        }
        written_checkpoints = snapshots;
        // Process "crashes" here: ckpt dropped without any special shutdown.
    }

    // ---- Phase 2: a fresh process restarts from disk. ----
    {
        let pfs = open_pfs(&dir)?;
        // A fresh PFS namespace does not know the pair: adopt its surviving
        // stripes, sizing the payload from the recovered metadata.
        let ckpt: DrxFile<f64> = DrxFile::from_store(ArrayStore::adopt(&pfs, "state")?)?;
        let snapshots = ckpt.bounds()[0];
        assert_eq!(snapshots, written_checkpoints, "all checkpoints survived the crash");
        println!("restart found {snapshots} snapshots; resuming from the last one");

        // Mass conservation across every snapshot (diffusion preserves sum).
        for s in 0..snapshots {
            let row = Region::new(vec![s, 0], vec![s + 1, CELLS])?;
            let data = ckpt.read_region(&row, Layout::C)?;
            let mass: f64 = data.iter().sum();
            assert!((mass - 1000.0).abs() < 1e-6, "snapshot {s} lost mass: {mass}");
        }
        println!("mass conserved in all snapshots ✓");

        // Resume: replay from the last snapshot and verify determinism
        // against an uninterrupted run.
        let last = Region::new(vec![snapshots - 1, 0], vec![snapshots, CELLS])?;
        let mut resumed = ckpt.read_region(&last, Layout::C)?;
        for _ in 31..=35 {
            step(&mut resumed);
        }
        let mut reference: Vec<f64> =
            (0..CELLS).map(|i| if i == CELLS / 2 { 1000.0 } else { 0.0 }).collect();
        for _ in 1..=35 {
            step(&mut reference);
        }
        let max_err =
            resumed.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(max_err < 1e-9, "resumed trajectory diverged: {max_err}");
        println!("resumed trajectory matches the uninterrupted run (max err {max_err:.2e})");
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
