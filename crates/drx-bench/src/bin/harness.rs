//! Run the evaluation experiments E1–E9 and print their tables — the data
//! recorded in EXPERIMENTS.md.
//!
//! Usage: `harness [--quick] [e1..e9]...` (default: all). `--quick` runs
//! reduced iteration counts. Any other argument prints the usage line and
//! exits 2.

use drx_bench::experiments::{
    e1_mapping, e2_extension, e3_access_order, e4_parallel, e5_chunk_stripe, e6_ga, e7_ablation,
    e8_cache, e9_balance,
};

const EXPERIMENTS: [&str; 9] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];

fn main() {
    let mut quick = false;
    let mut selected: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            quick = true;
        } else if EXPERIMENTS.contains(&a.as_str()) {
            selected.push(a);
        } else {
            eprintln!("usage: harness [--quick] [e1..e9]...");
            std::process::exit(2);
        }
    }
    let want = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    println!("DRX-MP evaluation harness (deterministic simulated-time results)");
    println!("================================================================\n");

    if want("e1") {
        let p = if quick {
            e1_mapping::Params { ranks: vec![2, 3], expansions: vec![4, 32], iters: 2_000 }
        } else {
            e1_mapping::Params::default()
        };
        println!("{}", e1_mapping::run(p));
    }
    if want("e2") {
        let p = if quick {
            e2_extension::Params { sides: vec![64], chunk: 16 }
        } else {
            e2_extension::Params::default()
        };
        println!("{}", e2_extension::run(p));
    }
    if want("e3") {
        let p = if quick {
            e3_access_order::Params { side: 64, chunk: 16, panels: 4 }
        } else {
            e3_access_order::Params::default()
        };
        println!("{}", e3_access_order::run(p));
    }
    if want("e4") {
        let p = if quick {
            e4_parallel::Params {
                side: 64,
                chunk: 8,
                ranks: vec![1, 4],
                servers: 4,
                stripe: 16 * 1024,
            }
        } else {
            e4_parallel::Params::default()
        };
        println!("{}", e4_parallel::run(p));
    }
    if want("e5") {
        let p = if quick {
            e5_chunk_stripe::Params {
                side: 96,
                chunk_sides: vec![16, 24, 32],
                servers: 2,
                stripe: 2048,
            }
        } else {
            e5_chunk_stripe::Params::default()
        };
        println!("{}", e5_chunk_stripe::run(p));
    }
    if want("e6") {
        let p = if quick {
            e6_ga::Params { side: 32, chunk: 8, ranks: 4, ops: 500 }
        } else {
            e6_ga::Params::default()
        };
        println!("{}", e6_ga::run(p));
    }
    if want("e7") {
        let p = if quick {
            e7_ablation::Params { extensions: vec![16, 128], iters: 2_000 }
        } else {
            e7_ablation::Params::default()
        };
        println!("{}", e7_ablation::run(p));
    }
    if want("e8") {
        let p = if quick {
            e8_cache::Params { side: 32, chunk: 8, pool_chunks: 4, accesses: 2_000 }
        } else {
            e8_cache::Params::default()
        };
        println!("{}", e8_cache::run(p));
    }
    if want("e9") {
        let p = if quick {
            e9_balance::Params { nprocs: 4, grids: vec![vec![5, 4], vec![9, 7]] }
        } else {
            e9_balance::Params::default()
        };
        println!("{}", e9_balance::run(p));
    }
}
