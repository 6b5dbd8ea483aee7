//! End-to-end and per-layer benchmark of the DRX serving surfaces.
//!
//! ```text
//! drx-perfbench --workload <bulk|zones|serve|grow> --seed <n> --seconds <s> --trace <0|1> [--corrupt]
//! drx-perfbench --selftest    # every workload must detect a corrupted chunk
//! drx-perfbench --probe       # 1024² probe: full read, first touch, TCP vs in-process
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). See README.md in this directory.

mod bulk;
mod common;
mod grow;
mod oracle;
mod probe;
mod replay;
mod serve;
mod zones;

use common::{end_to_end, per_layer, Cfg, Kind, Outcome, Res};
use std::process::ExitCode;

const USAGE: &str = "usage: drx-perfbench --workload <bulk|zones|serve|grow> --seed <n> \
                     --seconds <s> --trace <0|1> [--corrupt] | --selftest | --probe";

fn run_workload(name: &str, cfg: &Cfg) -> Res<Outcome> {
    match name {
        "bulk" => bulk::run(cfg),
        "zones" => zones::run(cfg),
        "serve" => serve::run(cfg),
        "grow" => grow::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Print the human-readable summary (with percentile sample counts) and
/// the JSON result line; returns whether the run was correct.
fn report(name: &str, cfg: &Cfg, o: &Outcome) -> bool {
    let r = &o.untraced;
    println!(
        "workload {name} seed {} seconds {} trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!(
        "samples: slab {} point {} append {}; setups {}",
        r.latencies(Kind::Slab).len(),
        r.latencies(Kind::Point).len(),
        r.latencies(Kind::Append).len(),
        o.setup_s.len()
    );
    for (class, kind) in [("slab", Kind::Slab), ("point", Kind::Point), ("append", Kind::Append)] {
        let v = r.latencies(kind);
        let ms = |p| common::percentile(&v, p) * 1e3;
        println!(
            "{class} ms: p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} (n {})",
            ms(50.0),
            ms(90.0),
            ms(95.0),
            ms(99.0),
            v.len()
        );
    }
    let mut attempted = r.attempted;
    let mut failed = r.failed;
    if let Some((b, _)) = &o.traced {
        attempted += b.attempted;
        failed += b.failed;
    }
    let metrics = if cfg.trace { per_layer(o) } else { end_to_end(o) };
    for (n, v, u) in &metrics {
        println!("  {n:<34} {v:>14.4} {u}");
    }
    let correct = failed == 0 && attempted > 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    correct
}

fn parse(args: &[String]) -> Result<(String, Cfg), String> {
    let mut workload = None;
    let mut cfg = Cfg { seed: 0, seconds: 10.0, trace: false, corrupt: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => cfg.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => cfg.trace = val()? == "1",
            "--corrupt" => cfg.corrupt = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// Run every workload briefly with one chunk corrupted; each run must
/// report failed reads.
fn selftest() -> ExitCode {
    let mut all = true;
    for name in ["bulk", "zones", "serve", "grow"] {
        let cfg = Cfg { seed: 7, seconds: 2.0, trace: false, corrupt: true };
        let detected = match run_workload(name, &cfg) {
            Ok(o) => o.untraced.failed > 0,
            Err(e) => {
                println!("selftest {name}: error {e}");
                false
            }
        };
        println!(
            "selftest {name}: corrupted chunk {}",
            if detected { "detected" } else { "NOT detected" }
        );
        all &= detected;
    }
    if all {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--selftest") => return selftest(),
        Some("--probe") => {
            return match probe::run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("probe failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let (name, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("drx-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&name, &cfg) {
        Ok(o) if report(&name, &cfg, &o) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("drx-perfbench: workload {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
