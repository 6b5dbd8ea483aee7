//! Traced replays: each surface's own pipeline rebuilt from the crates'
//! public calls, with every stage timed into its layer. A replay runs
//! right after the surface call it mirrors, and its output is compared
//! byte for byte with what the surface returned or stored.

use crate::common::{err, timed, Layers, Res};
use drx_core::{index, sorted_run_entries, ArrayMeta, ChunkRun, Layout, Region};
use drx_mp::{gather_chunk, scatter_chunk};
use drx_pfs::{Pfs, PfsFile};
use drx_server::{LockMode, RangeLockManager, SharedChunkCache};

/// The run-coalesced chunk plan of a region, as `DrxFile` and
/// `DrxmpHandle` build it: `chunks_covering` → `region_runs` →
/// `sorted_run_entries`, then adjacent chunks merged into byte extents.
struct Plan {
    runs: Vec<ChunkRun>,
    entries: Vec<(u64, u32, u32)>,
    cb: usize,
    extents: Vec<(u64, u64)>,
}

impl Plan {
    fn new(meta: &ArrayMeta, region: &Region, l: &mut Layers) -> Res<Plan> {
        let plan = l.time("core.plan", || -> Res<Plan> {
            let chunk_region = meta.chunking().chunks_covering(region).map_err(err("plan"))?;
            let runs = meta.grid().region_runs(&chunk_region).map_err(err("plan"))?;
            let entries = sorted_run_entries(&runs);
            let cb = meta.chunk_bytes();
            let mut extents: Vec<(u64, u64)> = Vec::new();
            for &(addr, _, _) in &entries {
                match extents.last_mut() {
                    Some((off, len)) if *off + *len == addr * cb => *len += cb,
                    _ => extents.push((addr * cb, cb)),
                }
            }
            Ok(Plan { runs, entries, cb: cb as usize, extents })
        })?;
        l.add("n.plan_chunks", plan.entries.len() as f64);
        l.add("n.plan_runs", plan.runs.len() as f64);
        Ok(plan)
    }

    fn bytes(&self) -> usize {
        self.entries.len() * self.cb
    }

    /// Chunk element region of entry `i` and its intersection with `region`.
    fn chunk(&self, meta: &ArrayMeta, i: usize, region: &Region) -> Res<(Region, Option<Region>)> {
        let (_, run, step) = self.entries[i];
        let idx = self.runs[run as usize].index_at(step as usize);
        let cr = meta.chunking().chunk_elements(&idx).map_err(err("chunk"))?;
        let valid = cr.intersect(region);
        Ok((cr, valid))
    }
}

/// `read_region`: plan, allocate, one vectored PFS read, scatter kernel.
pub fn read(
    meta: &ArrayMeta,
    file: &PfsFile,
    region: &Region,
    layout: Layout,
    l: &mut Layers,
) -> Res<Vec<f64>> {
    let plan = Plan::new(meta, region, l)?;
    let mut bytes = l.time("mp.alloc", || vec![0u8; plan.bytes()]);
    l.time("pfs.read", || file.read_extents_into(&plan.extents, &mut bytes))
        .map_err(err("pfs read"))?;
    let mut out = l.time("mp.alloc", || vec![0.0f64; region.volume() as usize]);
    let strides = layout.strides(&region.extents());
    let cs = meta.chunking().strides();
    let (moved, secs) = timed(|| -> Res<u64> {
        let mut moved = 0;
        for i in 0..plan.entries.len() {
            let (cr, Some(valid)) = plan.chunk(meta, i, region)? else { continue };
            let src = &bytes[i * plan.cb..(i + 1) * plan.cb];
            scatter_chunk(src, cr.lo(), cs, &mut out, region.lo(), &strides, &valid);
            moved += valid.volume() * 8;
        }
        Ok(moved)
    });
    l.add("mp.kernel", secs);
    l.add("n.kernel_bytes", moved? as f64);
    Ok(out)
}

/// Gather `data` into the chunk image `img` (one kernel call, timed).
#[allow(clippy::too_many_arguments)]
fn gather(
    meta: &ArrayMeta,
    cr: &Region,
    valid: &Region,
    region: &Region,
    strides: &[u64],
    data: &[f64],
    img: &mut [u8],
    l: &mut Layers,
) {
    l.time("mp.kernel", || {
        gather_chunk(data, region.lo(), strides, img, cr.lo(), meta.chunking().strides(), valid)
    });
    l.add("n.kernel_bytes", (valid.volume() * 8) as f64);
}

/// `DrxFile::write_region`: per chunk, a zeroed image (full chunks) or a
/// read of the stored chunk (read-modify-write), the gather kernel, and
/// one PFS write. Returns the number of chunks whose stored bytes differ
/// from the image the replay built.
pub fn write_per_chunk(
    meta: &ArrayMeta,
    file: &PfsFile,
    region: &Region,
    layout: Layout,
    data: &[f64],
    l: &mut Layers,
) -> Res<usize> {
    let plan = Plan::new(meta, region, l)?;
    l.add("n.write_ops", 1.0);
    let strides = layout.strides(&region.extents());
    let cb = plan.cb;
    let mut bad = 0;
    for i in 0..plan.entries.len() {
        let (cr, Some(valid)) = plan.chunk(meta, i, region)? else { continue };
        let off = plan.entries[i].0 * cb as u64;
        let mut img = if valid == cr {
            l.time("mp.alloc", || vec![0u8; cb])
        } else {
            l.add("n.rmw_chunks", 1.0);
            l.time("pfs.read", || file.read_vec(off, cb)).map_err(err("pfs read"))?
        };
        gather(meta, &cr, &valid, region, &strides, data, &mut img, l);
        if file.read_vec(off, cb).map_err(err("verify"))? != img {
            bad += 1;
        }
        l.time("pfs.write", || file.write_at(off, &img)).map_err(err("pfs write"))?;
    }
    Ok(bad)
}

/// `DrxmpHandle` writes: plan, one vectored read of the partial chunks,
/// chunk images assembled in one buffer, one vectored write. Returns the
/// number of mismatching bytes between the stored extents and the images.
pub fn write_vectored(
    meta: &ArrayMeta,
    file: &PfsFile,
    region: &Region,
    layout: Layout,
    data: &[f64],
    l: &mut Layers,
) -> Res<usize> {
    let plan = Plan::new(meta, region, l)?;
    l.add("n.write_ops", 1.0);
    let cb = plan.cb;
    let mut chunks = Vec::with_capacity(plan.entries.len());
    let mut partial: Vec<(u64, u64)> = Vec::new();
    l.time("core.plan", || -> Res<()> {
        for i in 0..plan.entries.len() {
            let (cr, valid) = plan.chunk(meta, i, region)?;
            if valid.as_ref() != Some(&cr) {
                partial.push((plan.entries[i].0 * cb as u64, cb as u64));
            }
            chunks.push((cr, valid));
        }
        Ok(())
    })?;
    l.add("n.rmw_chunks", partial.len() as f64);
    let mut pre = l.time("mp.alloc", || vec![0u8; partial.len() * cb]);
    l.time("pfs.read", || file.read_extents_into(&partial, &mut pre)).map_err(err("pfs read"))?;
    let mut bytes = l.time("mp.alloc", || vec![0u8; plan.bytes()]);
    let strides = layout.strides(&region.extents());
    let mut pi = 0;
    for (i, (cr, valid)) in chunks.iter().enumerate() {
        let dst = &mut bytes[i * cb..(i + 1) * cb];
        if pi < partial.len() && partial[pi].0 == plan.entries[i].0 * cb as u64 {
            l.time("mp.kernel", || dst.copy_from_slice(&pre[pi * cb..(pi + 1) * cb]));
            pi += 1;
        }
        if let Some(valid) = valid {
            gather(meta, cr, valid, region, &strides, data, dst, l);
        }
    }
    let mut stored = vec![0u8; bytes.len()];
    file.read_extents_into(&plan.extents, &mut stored).map_err(err("verify"))?;
    let bad = stored.iter().zip(&bytes).filter(|(a, b)| a != b).count();
    l.time("pfs.write", || file.write_extents(&plan.extents, &bytes)).map_err(err("pfs write"))?;
    Ok(bad)
}

/// 1-element read: byte offset through `F*`, one PFS read.
pub fn get(meta: &ArrayMeta, file: &PfsFile, idx: &[usize], l: &mut Layers) -> Res<f64> {
    let off = l.time("core.plan", || meta.element_byte_offset(idx)).map_err(err("offset"))?;
    let mut buf = l.time("mp.alloc", || vec![0u8; 8]);
    l.time("pfs.read", || file.read_at(off, &mut buf)).map_err(err("pfs read"))?;
    Ok(f64::from_le_bytes(buf.try_into().expect("8 bytes")))
}

/// 1-element write; returns whether the stored element already equals
/// the value (the surface stored it first).
pub fn set(meta: &ArrayMeta, file: &PfsFile, idx: &[usize], v: f64, l: &mut Layers) -> Res<bool> {
    let off = l.time("core.plan", || meta.element_byte_offset(idx)).map_err(err("offset"))?;
    let same = file.read_vec(off, 8).map_err(err("verify"))? == v.to_le_bytes();
    l.time("pfs.write", || file.write_at(off, &v.to_le_bytes())).map_err(err("pfs write"))?;
    Ok(same)
}

/// `DrxFile::extend` replayed on a copy of the pre-extend metadata:
/// axial-vector update and encode (core), payload resize and synced
/// `.xmd` rewrite (pfs). Returns whether the replayed image equals the
/// surface's.
pub fn extend(
    before: &ArrayMeta,
    after: &ArrayMeta,
    pfs: &Pfs,
    base: &str,
    dim: usize,
    l: &mut Layers,
) -> Res<bool> {
    let mut meta = before.clone();
    let outcome = l.time("core.plan", || meta.extend(dim, 1)).map_err(err("extend"))?;
    let bytes = l.time("core.plan", || meta.encode());
    l.time("pfs.write", || -> Res<()> {
        if outcome.new_chunk_count > 0 {
            let xta = pfs.open(&format!("{base}{}", drx_mp::XTA_SUFFIX)).map_err(err("open"))?;
            xta.set_len(meta.payload_bytes()).map_err(err("set_len"))?;
        }
        let xmd = pfs.open(&format!("{base}{}", drx_mp::XMD_SUFFIX)).map_err(err("open"))?;
        xmd.write_at(0, &bytes).map_err(err("xmd write"))?;
        xmd.set_len(bytes.len() as u64).map_err(err("xmd len"))?;
        xmd.sync().map_err(err("xmd sync"))
    })?;
    Ok(bytes == after.encode())
}

/// The server's region pipeline (`server.rs` `read_region` /
/// `write_region`) replayed through public calls on a private lock manager
/// and chunk cache of the same capacity, over a private copy of the
/// array's payload. The shadow sees the same reads and writes as the
/// server, so its cache follows the same hits, evictions and write-backs,
/// and its contents equal the array's: a replayed read is byte-compared
/// with the surface's reply.
pub struct ServerShadow {
    xta: PfsFile,
    locks: RangeLockManager,
    cache: SharedChunkCache,
}

impl ServerShadow {
    /// Copy `src` (whose writer must have flushed) into a private file
    /// system and put the shadow cache over the copy.
    pub fn new(src: &PfsFile, chunk_bytes: usize, cache_chunks: usize) -> Res<ServerShadow> {
        let pfs = Pfs::memory(4, 64 << 10).map_err(err("shadow pfs"))?;
        let xta = pfs.create("shadow.xta").map_err(err("shadow create"))?;
        let len = src.len();
        let step = 8u64 << 20;
        let mut off = 0;
        while off < len {
            let n = step.min(len - off);
            let bytes = src.read_vec(off, n as usize).map_err(err("shadow copy"))?;
            xta.write_at(off, &bytes).map_err(err("shadow copy"))?;
            off += n;
        }
        xta.set_len(len).map_err(err("shadow len"))?;
        let cache =
            SharedChunkCache::new(xta.clone(), chunk_bytes, cache_chunks).map_err(err("cache"))?;
        Ok(ServerShadow { xta, locks: RangeLockManager::new(), cache })
    }

    /// Mirror the server's extend: flush, then grow the payload.
    pub fn extend(&self, meta: &ArrayMeta) -> Res<()> {
        self.cache.flush().map_err(err("shadow flush"))?;
        self.xta.set_len(meta.payload_bytes()).map_err(err("shadow len"))
    }

    /// The server's chunk plan: `region_addresses` plus a sort.
    fn plan(meta: &ArrayMeta, region: &Region, l: &mut Layers) -> Res<Vec<(Vec<usize>, u64)>> {
        let pairs = l.time("core.plan", || -> Res<Vec<(Vec<usize>, u64)>> {
            let cr = meta.chunking().chunks_covering(region).map_err(err("plan"))?;
            let mut pairs = meta.grid().region_addresses(&cr).map_err(err("plan"))?;
            pairs.sort_by_key(|&(_, a)| a);
            Ok(pairs)
        })?;
        l.add("n.plan_chunks", pairs.len() as f64);
        l.add("n.plan_runs", pairs.len() as f64);
        l.add("n.lock_entries", pairs.len() as f64);
        l.add("n.lock_ops", 1.0);
        Ok(pairs)
    }

    /// Replay a region read; returns the row-major element bytes.
    pub fn read(&self, meta: &ArrayMeta, region: &Region, l: &mut Layers) -> Res<Vec<u8>> {
        let pairs = Self::plan(meta, region, l)?;
        let addrs: Vec<u64> = pairs.iter().map(|&(_, a)| a).collect();
        let guard = l.time("lock.acquire", || self.locks.acquire(&addrs, LockMode::Read));
        let chunks = l.time("cache.read", || self.cache.read_chunks(0, &addrs));
        let chunks = chunks.map_err(err("shadow read"))?;
        let esize = meta.dtype().size();
        let out = l.time("server.copy", || -> Res<Vec<u8>> {
            let strides = index::row_major_strides(&region.extents());
            let chunking = meta.chunking();
            let mut out = vec![0u8; region.volume() as usize * esize];
            for ((idx, _), bytes) in pairs.iter().zip(&chunks) {
                let ce = chunking.chunk_elements(idx).map_err(err("chunk"))?;
                let Some(valid) = ce.intersect(region) else { continue };
                index::for_each_offset_pair(
                    &valid,
                    ce.lo(),
                    chunking.strides(),
                    region.lo(),
                    &strides,
                    |s, d| {
                        let (s, d) = (s as usize * esize, d as usize * esize);
                        out[d..d + esize].copy_from_slice(&bytes[s..s + esize]);
                    },
                );
            }
            Ok(out)
        })?;
        drop(guard);
        Ok(out)
    }

    /// Replay a region write of row-major element bytes.
    pub fn write(&self, meta: &ArrayMeta, region: &Region, data: &[u8], l: &mut Layers) -> Res<()> {
        let pairs = Self::plan(meta, region, l)?;
        let addrs: Vec<u64> = pairs.iter().map(|&(_, a)| a).collect();
        let chunking = meta.chunking();
        let (full, partial) = l.time("core.plan", || -> Res<(Vec<bool>, Vec<u64>)> {
            let mut full = Vec::with_capacity(pairs.len());
            let mut partial = Vec::new();
            for (idx, a) in &pairs {
                let ce = chunking.chunk_elements(idx).map_err(err("chunk"))?;
                let covered = ce.intersect(region).is_some_and(|v| v.volume() == ce.volume());
                full.push(covered);
                if !covered {
                    partial.push(*a);
                }
            }
            Ok((full, partial))
        })?;
        l.add("n.write_ops", 1.0);
        l.add("n.rmw_chunks", partial.len() as f64);
        let guard = l.time("lock.acquire", || self.locks.acquire(&addrs, LockMode::Write));
        let fetched = l.time("cache.read", || self.cache.read_chunks(0, &partial));
        let mut fetched = fetched.map_err(err("shadow read"))?.into_iter();
        let esize = meta.dtype().size();
        let cb = meta.chunk_bytes() as usize;
        let strides = index::row_major_strides(&region.extents());
        for (i, (idx, addr)) in pairs.iter().enumerate() {
            let bytes = l.time("server.copy", || -> Res<Option<Vec<u8>>> {
                let ce = chunking.chunk_elements(idx).map_err(err("chunk"))?;
                let Some(valid) = ce.intersect(region) else { return Ok(None) };
                let mut bytes = if full[i] {
                    vec![0u8; cb]
                } else {
                    fetched.next().ok_or("partial chunk missing")?
                };
                index::for_each_offset_pair(
                    &valid,
                    ce.lo(),
                    chunking.strides(),
                    region.lo(),
                    &strides,
                    |dst, src| {
                        let (d, s) = (dst as usize * esize, src as usize * esize);
                        bytes[d..d + esize].copy_from_slice(&data[s..s + esize]);
                    },
                );
                Ok(Some(bytes))
            })?;
            if let Some(bytes) = bytes {
                l.time("cache.read", || self.cache.put_chunk(0, *addr, &bytes))
                    .map_err(err("shadow put"))?;
            }
        }
        drop(guard);
        Ok(())
    }
}
