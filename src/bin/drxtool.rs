//! `drxtool` — inspect and manipulate DRX extendible array files on disk.
//!
//! Arrays live as `<name>.xmd` + `<name>.xta` pairs inside a directory that
//! backs a disk-based PFS (stripes under `server*/`). Commands:
//!
//! ```text
//! drxtool create <dir> <name> --dtype f64 --chunk 2x3 --bounds 10x12 \
//!         [--servers N] [--stripe BYTES] [--layout rowmajor|shell]
//! drxtool info   <dir> <name>        # bounds, chunking, payload size
//! drxtool axial  <dir> <name>        # dump the axial vectors (Figure-3b style)
//! drxtool extend <dir> <name> --dim D --by N
//! drxtool get    <dir> <name> --index 9x7
//! drxtool set    <dir> <name> --index 9x7 --value 3.5
//! drxtool dump   <dir> <name> [--lo 0x0 --hi 4x4]   # print a region (2-D: as a grid)
//! drxtool serve  <dir> --addr 127.0.0.1:7421 [--threads N] [--cache CHUNKS]
//! drxtool client <addr> <info|get|set> <name> [--index 9x7] [--value 3.5]
//! ```
//!
//! `serve` exposes every array in the directory over the drx-server TCP
//! protocol; `client` talks to such a server.
//!
//! Any command that opens the PFS accepts `--fault-script seed:N` (generate
//! a deterministic schedule from seed `N`) or `--fault-script FILE` (replay
//! a saved schedule). The armed schedule is echoed to stderr so every run
//! can be replayed exactly.
//!
//! The tool stores the PFS geometry in `<dir>/pfs.conf` so later invocations
//! reopen the same striping.

use drx::parallel::MpError;
use drx::serial::{ArrayStore, DrxFile, XMD_SUFFIX};
use drx::server::{Server, ServerConfig, TcpClient};
use drx::{fault, ArrayMeta, Backing, CostModel, DType, Pfs, PfsConfig, PfsError};
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: drxtool <create|info|axial|extend|get|set|dump> <dir> <name> [options]\n\
         \x20      drxtool serve <dir> --addr HOST:PORT [--threads N] [--cache CHUNKS]\n\
         \x20      drxtool client <addr> <info|get|set> <name> [options]\n\
         options: --dtype f64|i64  --chunk AxB[xC…]  --bounds AxB[xC…]\n\
                  --servers N  --stripe BYTES  --dim D  --by N\n\
                  --index AxB[xC…]  --value V  --lo AxB[xC…]  --hi AxB[xC…]\n\
                  --addr HOST:PORT  --threads N  --cache CHUNKS\n\
                  --fault-script seed:N|FILE   (deterministic fault injection)"
    );
    exit(2);
}

struct Opts {
    dtype: String,
    layout: String,
    chunk: Vec<usize>,
    bounds: Vec<usize>,
    servers: usize,
    stripe: u64,
    dim: usize,
    by: usize,
    index: Vec<usize>,
    value: f64,
    lo: Vec<usize>,
    hi: Vec<usize>,
    addr: String,
    threads: usize,
    cache: usize,
    fault_script: String,
}

fn parse_dims(s: &str) -> Vec<usize> {
    s.split(['x', ',']).map(|p| p.parse().unwrap_or_else(|_| usage())).collect()
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        dtype: "f64".into(),
        layout: "rowmajor".into(),
        chunk: vec![],
        bounds: vec![],
        servers: 4,
        stripe: 64 * 1024,
        dim: 0,
        by: 0,
        index: vec![],
        value: 0.0,
        lo: vec![],
        hi: vec![],
        addr: String::new(),
        threads: 4,
        cache: 64,
        fault_script: String::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        let val = args.get(i + 1).unwrap_or_else(|| usage()).clone();
        match key.as_str() {
            "--dtype" => o.dtype = val,
            "--layout" => o.layout = val,
            "--chunk" => o.chunk = parse_dims(&val),
            "--bounds" => o.bounds = parse_dims(&val),
            "--servers" => o.servers = val.parse().unwrap_or_else(|_| usage()),
            "--stripe" => o.stripe = val.parse().unwrap_or_else(|_| usage()),
            "--dim" => o.dim = val.parse().unwrap_or_else(|_| usage()),
            "--by" => o.by = val.parse().unwrap_or_else(|_| usage()),
            "--index" => o.index = parse_dims(&val),
            "--value" => o.value = val.parse().unwrap_or_else(|_| usage()),
            "--lo" => o.lo = parse_dims(&val),
            "--hi" => o.hi = parse_dims(&val),
            "--addr" => o.addr = val,
            "--threads" => o.threads = val.parse().unwrap_or_else(|_| usage()),
            "--cache" => o.cache = val.parse().unwrap_or_else(|_| usage()),
            "--fault-script" => o.fault_script = val,
            _ => usage(),
        }
        i += 2;
    }
    o
}

/// Persist/recover the PFS geometry of a directory.
fn pfs_for(dir: &Path, opts: &Opts, create: bool) -> Result<Pfs, Box<dyn std::error::Error>> {
    let conf = dir.join("pfs.conf");
    let (servers, stripe) = if conf.exists() {
        let text = std::fs::read_to_string(&conf)?;
        let mut parts = text.split_whitespace();
        let s: usize = parts.next().ok_or("bad pfs.conf")?.parse()?;
        let st: u64 = parts.next().ok_or("bad pfs.conf")?.parse()?;
        (s, st)
    } else if create {
        std::fs::create_dir_all(dir)?;
        std::fs::write(&conf, format!("{} {}\n", opts.servers, opts.stripe))?;
        (opts.servers, opts.stripe)
    } else {
        return Err(
            format!("{} is not a drxtool directory (missing pfs.conf)", dir.display()).into()
        );
    };
    let pfs = Pfs::new(PfsConfig {
        n_servers: servers,
        stripe_size: stripe,
        cost: CostModel::default(),
        backing: Backing::Disk(dir.to_path_buf()),
        injector: injector_for(opts, servers)?,
        ..PfsConfig::default()
    })?;
    Ok(pfs)
}

/// Build the fault injector requested by `--fault-script`, if any. The
/// armed schedule is echoed to stderr in its replayable text form, so a
/// failure seen under `seed:N` can be reproduced from the printed script
/// alone.
fn injector_for(
    opts: &Opts,
    servers: usize,
) -> Result<Option<std::sync::Arc<fault::Injector>>, Box<dyn std::error::Error>> {
    if opts.fault_script.is_empty() {
        return Ok(None);
    }
    let script = if let Some(seed) = opts.fault_script.strip_prefix("seed:") {
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed in '{}'", opts.fault_script))?;
        fault::Script::from_seed(seed, 8, servers)
    } else {
        let text = std::fs::read_to_string(&opts.fault_script)?;
        fault::Script::parse(&text).map_err(|e| format!("bad fault script: {e}"))?
    };
    eprintln!("drxtool: fault injection armed; replayable schedule:");
    eprint!("{script}");
    Ok(Some(std::sync::Arc::new(fault::Injector::new(script))))
}

/// Re-adopt the file pair in the (fresh) PFS namespace: the in-memory
/// file table does not survive process restarts, so reopening means
/// re-adopting the on-disk stripes under the same names
/// ([`ArrayStore::adopt`]). A missing name leaves no stray files behind.
fn adopt(pfs: &Pfs, name: &str) -> Result<(ArrayStore, ArrayMeta), Box<dyn std::error::Error>> {
    ArrayStore::adopt(pfs, name).map_err(|e| match e {
        MpError::Pfs(PfsError::NoSuchFile(_)) => {
            format!("array '{name}' not found in this directory").into()
        }
        e => e.into(),
    })
}

fn dims(v: &[usize]) -> String {
    v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join("×")
}

/// List the array base names stored in a drxtool directory by scanning any
/// one server's stripe files for `.xmd` entries.
fn array_names(dir: &Path) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let mut names = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !(path.is_dir()
            && path.file_name().is_some_and(|n| n.to_string_lossy().starts_with("server")))
        {
            continue;
        }
        for f in std::fs::read_dir(&path)? {
            let f = f?;
            let name = f.file_name().to_string_lossy().into_owned();
            if let Some(base) = name.strip_suffix(XMD_SUFFIX) {
                // Zero-length strays (left by older builds opening before
                // checking existence) are not arrays.
                if f.metadata()?.len() > 0 {
                    names.insert(base.to_string());
                }
            }
        }
    }
    Ok(names.into_iter().collect())
}

/// `drxtool serve <dir> --addr HOST:PORT [--threads N] [--cache CHUNKS]`
fn run_serve(dir: &Path, opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    if opts.addr.is_empty() {
        return Err("serve requires --addr HOST:PORT".into());
    }
    let pfs = pfs_for(dir, opts, false)?;
    let names = array_names(dir)?;
    if names.is_empty() {
        return Err(format!("no arrays found in {}", dir.display()).into());
    }
    for name in &names {
        adopt(&pfs, name)?;
    }
    let server = Server::new(pfs, ServerConfig { cache_chunks: opts.cache });
    let handle = drx::server::serve(&server, opts.addr.as_str(), opts.threads)
        .map_err(|e| format!("cannot serve on {}: {e}", opts.addr))?;
    println!("serving {} array(s) [{}] on {}", names.len(), names.join(", "), handle.addr());
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

/// `drxtool client <addr> <info|get|set> <name> [--index …] [--value …]`
fn run_client(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if args.len() < 3 {
        usage();
    }
    let addr = args[0].as_str();
    let sub = args[1].as_str();
    let name = args[2].as_str();
    let opts = parse_opts(&args[3..]);
    let mut client =
        TcpClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let (handle, info) = client.open(name)?;
    let u64_index = |idx: &[usize]| -> (Vec<u64>, Vec<u64>) {
        let lo: Vec<u64> = idx.iter().map(|&i| i as u64).collect();
        let hi: Vec<u64> = idx.iter().map(|&i| i as u64 + 1).collect();
        (lo, hi)
    };
    match sub {
        "info" => {
            let s = client.stat(handle)?;
            println!("array      : {name}");
            println!("dtype      : {}", DType::from_code(s.dtype)?.name());
            println!(
                "bounds     : {}",
                s.bounds.iter().map(|b| b.to_string()).collect::<Vec<_>>().join("×")
            );
            println!(
                "chunk shape: {}",
                s.chunk_shape.iter().map(|b| b.to_string()).collect::<Vec<_>>().join("×")
            );
            println!("chunks     : {}", s.total_chunks);
            println!("payload    : {} bytes", s.payload_bytes);
            println!(
                "cache      : {} hits / {} misses (global)",
                s.global_cache.hits, s.global_cache.misses
            );
            println!("pfs        : {} requests, {} bytes", s.pfs_requests, s.pfs_bytes);
            println!("batches    : {} coalesced, {} lock waits", s.coalesced_batches, s.lock_waits);
        }
        "get" => {
            if opts.index.is_empty() {
                usage();
            }
            let (lo, hi) = u64_index(&opts.index);
            match DType::from_code(info.dtype)? {
                DType::Float64 => {
                    println!("{}", client.read_region_as::<f64>(handle, &lo, &hi)?[0])
                }
                DType::Int64 => println!("{}", client.read_region_as::<i64>(handle, &lo, &hi)?[0]),
                other => {
                    return Err(
                        format!("client supports f64/i64 arrays, found {}", other.name()).into()
                    )
                }
            }
        }
        "set" => {
            if opts.index.is_empty() {
                usage();
            }
            let (lo, hi) = u64_index(&opts.index);
            match DType::from_code(info.dtype)? {
                DType::Float64 => {
                    client.write_region_from::<f64>(handle, &lo, &hi, &[opts.value])?
                }
                DType::Int64 => {
                    client.write_region_from::<i64>(handle, &lo, &hi, &[opts.value as i64])?
                }
                other => {
                    return Err(
                        format!("client supports f64/i64 arrays, found {}", other.name()).into()
                    )
                }
            }
            println!("ok");
        }
        _ => usage(),
    }
    client.close(handle)?;
    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "serve" {
        if args.len() < 2 {
            usage();
        }
        return run_serve(&PathBuf::from(&args[1]), &parse_opts(&args[2..]));
    }
    if args[0] == "client" {
        return run_client(&args[1..]);
    }
    if args.len() < 3 {
        usage();
    }
    let cmd = args[0].as_str();
    let dir = PathBuf::from(&args[1]);
    let name = args[2].clone();
    let opts = parse_opts(&args[3..]);

    match cmd {
        "create" => {
            if opts.chunk.is_empty() || opts.bounds.is_empty() {
                usage();
            }
            let pfs = pfs_for(&dir, &opts, true)?;
            let layout = match opts.layout.as_str() {
                "rowmajor" => drx::InitialLayout::RowMajor,
                "shell" => drx::InitialLayout::ShellOrder,
                other => return Err(format!("unsupported layout {other}").into()),
            };
            match opts.dtype.as_str() {
                "f64" => {
                    DrxFile::<f64>::create_with_layout(
                        &pfs,
                        &name,
                        &opts.chunk,
                        &opts.bounds,
                        layout,
                    )?;
                }
                "i64" => {
                    DrxFile::<i64>::create_with_layout(
                        &pfs,
                        &name,
                        &opts.chunk,
                        &opts.bounds,
                        layout,
                    )?;
                }
                other => return Err(format!("unsupported dtype {other}").into()),
            }
            println!(
                "created {name}: bounds {}, chunks {}, dtype {}",
                dims(&opts.bounds),
                dims(&opts.chunk),
                opts.dtype
            );
        }
        "info" | "axial" | "extend" | "get" | "set" | "dump" => {
            let pfs = pfs_for(&dir, &opts, false)?;
            let pair = adopt(&pfs, &name)?;
            match pair.1.dtype() {
                DType::Float64 => dispatch(cmd, DrxFile::<f64>::from_store(pair)?, &name, &opts)?,
                DType::Int64 => dispatch(cmd, DrxFile::<i64>::from_store(pair)?, &name, &opts)?,
                other => {
                    return Err(
                        format!("drxtool supports f64/i64 files, found {}", other.name()).into()
                    )
                }
            }
        }
        _ => usage(),
    }
    Ok(())
}

fn dispatch<T>(
    cmd: &str,
    mut f: DrxFile<T>,
    name: &str,
    opts: &Opts,
) -> Result<(), Box<dyn std::error::Error>>
where
    T: drx::Element + std::fmt::Display + std::str::FromStr,
    <T as std::str::FromStr>::Err: std::fmt::Display,
{
    match cmd {
        "info" => {
            let m = f.meta();
            println!("array      : {name}");
            println!("dtype      : {}", m.dtype().name());
            println!("rank       : {}", m.rank());
            println!("bounds     : {}", dims(m.element_bounds()));
            println!("chunk shape: {}", dims(m.chunking().shape()));
            println!("chunk grid : {}", dims(m.grid().bounds()));
            println!("chunks     : {}", m.total_chunks());
            println!("payload    : {} bytes", m.payload_bytes());
            println!("axial recs : {}", m.grid().record_count());
        }
        "axial" => {
            let m = f.meta();
            println!("axial vectors of {name} (N* start index; M* start address; C coefficients):");
            for dim in 0..m.rank() {
                for (start, addr, coeffs) in m.grid().axial(dim).display_records(m.rank()) {
                    println!("  D{dim}: N*={start:<4} M*={addr:<6} C={coeffs:?}");
                }
            }
        }
        "extend" => {
            if opts.by == 0 {
                usage();
            }
            f.extend(opts.dim, opts.by)?;
            println!("extended dim {} by {}; bounds now {}", opts.dim, opts.by, dims(f.bounds()));
        }
        "get" => {
            if opts.index.is_empty() {
                usage();
            }
            println!("{}", f.get(&opts.index)?);
        }
        "set" => {
            if opts.index.is_empty() {
                usage();
            }
            let v: T = format!("{}", opts.value).parse().map_err(|e| format!("bad value: {e}"))?;
            f.set(&opts.index, v)?;
            println!("ok");
        }
        "dump" => {
            let m = f.meta();
            let lo = if opts.lo.is_empty() { vec![0; m.rank()] } else { opts.lo.clone() };
            let hi = if opts.hi.is_empty() { m.element_bounds().to_vec() } else { opts.hi.clone() };
            let region = drx::Region::new(lo, hi)?;
            let data = f.read_region(&region, drx::Layout::C)?;
            let extents = region.extents();
            if m.rank() == 2 {
                // Grid rendering for matrices.
                let cols = extents[1];
                for (r, row) in data.chunks(cols).enumerate() {
                    let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
                    println!("[{:>4}] {}", region.lo()[0] + r, cells.join(" "));
                }
            } else {
                for (pos, idx) in region.iter().enumerate() {
                    println!("{idx:?} = {}", data[pos]);
                }
            }
        }
        _ => usage(),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("drxtool: {e}");
        exit(1);
    }
}
