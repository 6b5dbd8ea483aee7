//! The array service: sessions, open arrays, and request execution.
//!
//! A [`Server`] owns one [`Pfs`] namespace and any number of DRX arrays
//! (`.xmd` + `.xta` pairs) inside it. Clients talk to it through sessions
//! — either in-process ([`crate::Client`]) or over TCP ([`crate::serve`],
//! [`crate::TcpClient`]); both funnel into [`Server::handle`], so the two
//! transports have identical semantics.
//!
//! Concurrency model, per array:
//!
//! * **Region reads/writes** take shared/exclusive chunk-range locks on
//!   exactly the chunks the region touches (all-or-nothing; see
//!   [`crate::lock`]). Disjoint regions proceed in parallel; overlapping
//!   writes serialize; a region operation is atomic with respect to any
//!   other operation whose chunk set overlaps it.
//! * **Extend** never takes chunk locks. It holds the array's metadata
//!   `RwLock` exclusively, which serializes extends against each other and
//!   against the bounds snapshot every region operation starts with.
//!   Because DRX extension is append-only — the axial-vector mapping `F*`
//!   never relocates an existing chunk — readers and writers working from
//!   a pre-extend snapshot remain correct while the array grows.
//! * **Chunk I/O** goes through one [`SharedChunkCache`] per array, which
//!   fetches each request's misses with one PFS request per run of
//!   consecutive chunks.
//!
//! A region request is planned with `drx-mp`'s [`ChunkPlan`] against a
//! metadata snapshot, locked, and copied row by row ([`copy_rows`])
//! between the resident cache frames and the payload — over TCP straight
//! into the connection's reply frame (DESIGN.md §8). An array is retired,
//! with its cache frames, when its last handle closes.

use crate::cache::SharedChunkCache;
use crate::error::{ErrorCode, Result, ServerError};
use crate::lock::{LockMode, RangeLockManager};
use crate::proto::{
    data_header, encode_response, error_response, ArrayInfo, Request, Response, StatReply,
    DATA_HEADER,
};
use drx_core::{index, ArrayMeta, Region};
use drx_mp::{copy_rows, ArrayStore, ChunkPlan, MpError};
use drx_pfs::{Pfs, PfsError};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Capacity, in chunks, of each array's shared cache.
    pub cache_chunks: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { cache_chunks: 64 }
    }
}

/// One open array: metadata, file pair, lock manager, shared cache.
pub(crate) struct ArrayState {
    name: String,
    // A request's bounds snapshot is a pointer clone; `extend` swaps in
    // the grown metadata.
    // lock-class: meta => ArrayMeta
    meta: RwLock<Arc<ArrayMeta>>,
    store: ArrayStore,
    locks: RangeLockManager,
    cache: SharedChunkCache,
}

struct Session {
    handles: HashMap<u32, Arc<ArrayState>>,
}

/// A registry entry: an open array and how many session handles hold it.
struct Registered {
    state: Arc<ArrayState>,
    handles: usize,
}

// The canonical DRX lock-order DAG (DESIGN.md §9): a thread may only
// acquire downward along these declared edges, and `drx-analyze` fails the
// build on any observed nesting that is not listed here.
//
// lock-order: ServerArrays -> PfsMeta
// lock-order: ServerArrays -> PfsFiles
// lock-order: ServerArrays -> PfsStats
// lock-order: ServerArrays -> PfsBacking
// lock-order: ArrayMeta -> LockTable
// lock-order: ArrayMeta -> ChunkPool
// lock-order: ArrayMeta -> PfsMeta
// lock-order: ArrayMeta -> PfsFiles
// lock-order: ArrayMeta -> PfsStats
// lock-order: ArrayMeta -> PfsBacking
// lock-order: ChunkPool -> PfsMeta
// lock-order: ChunkPool -> PfsFiles
// lock-order: ChunkPool -> PfsStats
// lock-order: ChunkPool -> PfsBacking
struct Inner {
    pfs: Pfs,
    config: ServerConfig,
    // lock-class: arrays => ServerArrays
    arrays: Mutex<HashMap<String, Registered>>,
    // lock-class: inner.sessions => ServerSessions
    sessions: Mutex<HashMap<u64, Session>>,
    next_session: AtomicU64,
    next_handle: AtomicU32,
}

/// An embeddable multi-client DRX array service. Cheap to clone (shared
/// state behind an `Arc`); clones serve the same arrays and sessions.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

fn to_usize_dims(v: &[u64]) -> Result<Vec<usize>> {
    v.iter()
        .map(|&x| {
            usize::try_from(x)
                .map_err(|_| ServerError::bad_request(format!("dimension value {x} too large")))
        })
        .collect()
}

fn to_u64_dims(v: &[usize]) -> Vec<u64> {
    v.iter().map(|&x| x as u64).collect()
}

impl Server {
    pub fn new(pfs: Pfs, config: ServerConfig) -> Self {
        Server {
            inner: Arc::new(Inner {
                pfs,
                config,
                arrays: Mutex::new(HashMap::new()),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                next_handle: AtomicU32::new(1),
            }),
        }
    }

    pub fn pfs(&self) -> &Pfs {
        &self.inner.pfs
    }

    /// Begin a session. Every transport connection maps to one session.
    pub fn open_session(&self) -> u64 {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        self.inner.sessions.lock().insert(id, Session { handles: HashMap::new() });
        id
    }

    /// End a session: releases its handles, flushing the touched arrays,
    /// dropping its cache statistics and retiring arrays no session holds.
    pub fn close_session(&self, session: u64) {
        let Some(state) = self.inner.sessions.lock().remove(&session) else { return };
        for array in state.handles.values() {
            // allow-discard: teardown flush is best-effort; session is going away
            let _ = self.release(session, array);
        }
    }

    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().len()
    }

    /// Flush every open array's cache to storage.
    pub fn flush_all(&self) -> Result<()> {
        let arrays: Vec<Arc<ArrayState>> =
            self.inner.arrays.lock().values().map(|r| Arc::clone(&r.state)).collect();
        for a in arrays {
            a.cache.flush()?;
        }
        Ok(())
    }

    /// Execute one request on behalf of `session`. Never panics on bad
    /// input; failures come back as [`Response::Error`].
    pub fn handle(&self, session: u64, req: Request) -> Response {
        match self.try_handle(session, req) {
            Ok(resp) => resp,
            Err(e) => Response::Error { code: e.code as u16, message: e.message },
        }
    }

    fn try_handle(&self, session: u64, req: Request) -> Result<Response> {
        match req {
            Request::Open { name } => {
                let array = self.open_array(&name)?;
                let handle = self.inner.next_handle.fetch_add(1, Ordering::Relaxed);
                let info = {
                    let meta = array.meta.read();
                    ArrayInfo {
                        dtype: meta.dtype().code(),
                        bounds: to_u64_dims(meta.element_bounds()),
                        chunk_shape: to_u64_dims(meta.chunking().shape()),
                    }
                };
                if let Err(e) = self.session_mut(session, |s| {
                    s.handles.insert(handle, Arc::clone(&array));
                }) {
                    // allow-discard: the session is gone; report that instead
                    let _ = self.release(session, &array);
                    return Err(e);
                }
                Ok(Response::Opened { handle, info })
            }
            Request::ReadRegion { handle, lo, hi } => {
                let array = self.resolve(session, handle)?;
                let mut data = Vec::new();
                read_region(&array, session, &lo, &hi, usize::MAX, 0, &mut data)?;
                Ok(Response::Data { data })
            }
            Request::WriteRegion { handle, lo, hi, data } => {
                let array = self.resolve(session, handle)?;
                write_region(&array, session, &lo, &hi, &data)?;
                Ok(Response::Written)
            }
            Request::Extend { handle, dim, by } => {
                let array = self.resolve(session, handle)?;
                let bounds = extend(&array, dim, by)?;
                Ok(Response::Extended { bounds })
            }
            Request::Stat { handle } => {
                let array = self.resolve(session, handle)?;
                Ok(Response::Stat(self.stat(&array, session)))
            }
            Request::Close { handle } => {
                let array =
                    self.session_mut(session, |s| s.handles.remove(&handle))?.ok_or_else(|| {
                        ServerError::new(ErrorCode::BadHandle, format!("unknown handle {handle}"))
                    })?;
                self.release(session, &array)?;
                Ok(Response::Closed)
            }
        }
    }

    /// Execute a `ReadRegion` for a framed transport and return its
    /// encoded reply body, built in `reply`: the region's bytes are copied
    /// from the cache frames straight in behind the `Data` header. `reply`
    /// is reused across requests and only grows, so a warm connection
    /// neither allocates nor zero-fills. A body longer than `limit` (the
    /// negotiated frame cap) is refused with `FrameTooLarge` before any
    /// planning, locking or allocation.
    pub(crate) fn read_region_reply<'a>(
        &self,
        session: u64,
        handle: u32,
        lo: &[u64],
        hi: &[u64],
        limit: usize,
        reply: &'a mut Vec<u8>,
    ) -> &'a [u8] {
        let limit = limit.min(u32::MAX as usize);
        let read = self
            .resolve(session, handle)
            .and_then(|array| read_region(&array, session, lo, hi, limit, DATA_HEADER, reply));
        match read {
            Ok(len) => {
                // `DATA_HEADER + len <= limit <= u32::MAX`: the length fits.
                reply[..DATA_HEADER].copy_from_slice(&data_header(len as u32));
                &reply[..DATA_HEADER + len]
            }
            Err(e) => {
                *reply = encode_response(&error_response(&e));
                reply
            }
        }
    }

    /// Release one session handle on `array`: flush it, drop the session's
    /// cache statistics, and retire the array — remove it from the
    /// registry, freeing its frames — once no handle holds it. Deciding
    /// under the registry lock means a concurrent `Open` either holds the
    /// registered array or reads the files afresh. An array whose flush
    /// failed stays registered with its dirty frames for a later flush.
    fn release(&self, session: u64, array: &Arc<ArrayState>) -> Result<()> {
        let flushed = array.cache.flush();
        array.cache.drop_session(session);
        let mut arrays = self.inner.arrays.lock();
        if let Some(entry) = arrays.get_mut(&array.name) {
            if Arc::ptr_eq(&entry.state, array) {
                entry.handles -= 1;
                if entry.handles == 0 && flushed.is_ok() {
                    arrays.remove(&array.name);
                }
            }
        }
        flushed
    }

    fn session_mut<R>(&self, session: u64, f: impl FnOnce(&mut Session) -> R) -> Result<R> {
        let mut sessions = self.inner.sessions.lock();
        let s = sessions.get_mut(&session).ok_or_else(|| {
            ServerError::new(ErrorCode::BadHandle, format!("unknown session {session}"))
        })?;
        Ok(f(s))
    }

    fn resolve(&self, session: u64, handle: u32) -> Result<Arc<ArrayState>> {
        self.session_mut(session, |s| s.handles.get(&handle).cloned())?.ok_or_else(|| {
            ServerError::new(ErrorCode::BadHandle, format!("unknown handle {handle}"))
        })
    }

    /// Open `name` for one new handle: the registered array, or a fresh
    /// one read from the files. The caller owes a [`Server::release`].
    fn open_array(&self, name: &str) -> Result<Arc<ArrayState>> {
        let mut arrays = self.inner.arrays.lock();
        if let Some(entry) = arrays.get_mut(name) {
            entry.handles += 1;
            return Ok(Arc::clone(&entry.state));
        }
        // A stored `.xmd` that does not decode is a storage fault, not a
        // bad request.
        let (store, meta) = ArrayStore::open(&self.inner.pfs, name).map_err(|e| match e {
            MpError::Pfs(PfsError::NoSuchFile(_)) => {
                ServerError::new(ErrorCode::NoSuchArray, format!("no array named '{name}'"))
            }
            MpError::Core(e) => ServerError::new(ErrorCode::Internal, e.to_string()),
            e => e.into(),
        })?;
        let cache = SharedChunkCache::new(
            store.payload().clone(),
            meta.chunk_bytes() as usize,
            self.inner.config.cache_chunks,
        )?;
        let state = Arc::new(ArrayState {
            name: name.to_string(),
            meta: RwLock::new(Arc::new(meta)),
            store,
            locks: RangeLockManager::new(),
            cache,
        });
        arrays.insert(name.to_string(), Registered { state: Arc::clone(&state), handles: 1 });
        Ok(state)
    }

    fn stat(&self, array: &ArrayState, session: u64) -> StatReply {
        // Snapshot the metadata fields and release the read guard before
        // querying the cache, lock and PFS layers: stat is a diagnostic
        // and must not nest ArrayMeta over the stats locks.
        let (dtype, bounds, chunk_shape, total_chunks, payload_bytes) = {
            let meta = array.meta.read();
            (
                meta.dtype().code(),
                to_u64_dims(meta.element_bounds()),
                to_u64_dims(meta.chunking().shape()),
                meta.total_chunks(),
                meta.payload_bytes(),
            )
        };
        let pfs_stats = self.inner.pfs.stats();
        StatReply {
            dtype,
            bounds,
            chunk_shape,
            total_chunks,
            payload_bytes,
            session_cache: array.cache.session_stats(session),
            global_cache: array.cache.global_stats(),
            pfs_requests: pfs_stats.total_requests(),
            pfs_bytes: pfs_stats.total_bytes(),
            coalesced_batches: array.cache.coalesced_batches(),
            lock_waits: array.locks.wait_count(),
        }
    }
}

/// Build the region `[lo, hi)` from request fields and check it against a
/// metadata snapshot with the one region validator,
/// [`ArrayMeta::check_region`].
fn request_region(meta: &ArrayMeta, lo: &[u64], hi: &[u64]) -> Result<Region> {
    let region = Region::new(to_usize_dims(lo)?, to_usize_dims(hi)?)?;
    meta.check_region(&region)?;
    Ok(region)
}

/// The planned chunks of `region`, in address order: their addresses, and
/// each chunk's box with its intersection with `region`.
type Planned = (Vec<u64>, Vec<(Region, Option<Region>)>);

fn plan(meta: &ArrayMeta, region: &Region) -> Result<Planned> {
    let plan = ChunkPlan::for_region(meta, region)?;
    let boxes = plan.boxes(0..plan.len(), meta.chunking(), region);
    Ok((plan.addrs().collect(), boxes.collect::<drx_mp::Result<_>>()?))
}

/// Read `[lo, hi)` as row-major element bytes into `out[at..]`, growing
/// `out` if it is shorter, and return the payload length. Fails with
/// `FrameTooLarge` when `at` plus the payload exceeds `limit`, before any
/// planning, locking or allocation.
fn read_region(
    array: &ArrayState,
    session: u64,
    lo: &[u64],
    hi: &[u64],
    limit: usize,
    at: usize,
    out: &mut Vec<u8>,
) -> Result<usize> {
    // Bounds snapshot: extends are serialized against this read lock, and
    // append-only extension keeps every address in the snapshot valid
    // afterwards.
    let meta = Arc::clone(&array.meta.read());
    let region = request_region(&meta, lo, hi)?;
    let esize = meta.dtype().size();
    let len = usize::try_from(region.volume()).ok().and_then(|v| v.checked_mul(esize));
    let Some(len) = len.filter(|&n| n.checked_add(at).is_some_and(|end| end <= limit)) else {
        let want = (region.volume() as usize).saturating_mul(esize).saturating_add(at);
        return Err(ServerError::frame_too_large(want, limit));
    };
    if out.len() < at + len {
        out.resize(at + len, 0);
    }
    if len == 0 {
        return Ok(0);
    }
    let (addrs, boxes) = plan(&meta, &region)?;
    let dst = &mut out[at..at + len];
    let dst_strides = index::row_major_strides(&region.extents());
    let chunk_strides = meta.chunking().strides();

    let _guard = array.locks.acquire(&addrs, LockMode::Read);
    array.cache.read_frames(session, &addrs, |i, frame| {
        let (chunk_box, Some(valid)) = &boxes[i] else { return };
        copy_rows(
            frame,
            chunk_box.lo(),
            chunk_strides,
            dst,
            region.lo(),
            &dst_strides,
            valid,
            esize,
        );
    })?;
    Ok(len)
}

fn write_region(
    array: &ArrayState,
    session: u64,
    lo: &[u64],
    hi: &[u64],
    data: &[u8],
) -> Result<()> {
    let meta = Arc::clone(&array.meta.read());
    let region = request_region(&meta, lo, hi)?;
    let esize = meta.dtype().size();
    let expected = region.volume() as usize * esize;
    if data.len() != expected {
        return Err(ServerError::bad_request(format!(
            "write payload of {} bytes does not cover region ({expected} bytes)",
            data.len()
        )));
    }
    if region.is_empty() {
        return Ok(());
    }
    let (addrs, boxes) = plan(&meta, &region)?;
    // A chunk counts as fully covered only when the region contains its
    // *entire* allocated extent — including slack beyond the current
    // element bounds, which must be preserved for future extends. The
    // others are read-modify-written.
    let full: Vec<bool> = boxes.iter().map(|(b, valid)| valid.as_ref() == Some(b)).collect();
    let src_strides = index::row_major_strides(&region.extents());
    let chunk_strides = meta.chunking().strides();

    let _guard = array.locks.acquire(&addrs, LockMode::Write);
    array.cache.write_frames(session, &addrs, &full, |i, frame| {
        let (chunk_box, Some(valid)) = &boxes[i] else { return };
        copy_rows(
            data,
            region.lo(),
            &src_strides,
            frame,
            chunk_box.lo(),
            chunk_strides,
            valid,
            esize,
        );
    })
}

fn extend(array: &ArrayState, dim: u32, by: u64) -> Result<Vec<u64>> {
    // The metadata write lock is the extend serialization point: no other
    // extend, and no region operation's bounds snapshot, can interleave
    // with the axial-vector update. Chunk locks are not needed — existing
    // chunk addresses are immutable under `F*`'s append-only growth.
    let mut snapshot = array.meta.write();
    let by = usize::try_from(by)
        .map_err(|_| ServerError::bad_request(format!("extend amount {by} too large")))?;
    // Flush before growing so the payload file is never left with dirty
    // cached chunks beyond a stale length.
    array.cache.flush()?;
    // Copy-on-write: snapshots taken by in-flight requests keep the old
    // metadata.
    let meta = Arc::make_mut(&mut snapshot);
    meta.extend(dim as usize, by)?;
    // The durable commit point: the axial vectors are on disk before any
    // payload lands in the extended region.
    array.store.commit(meta)?;
    Ok(to_u64_dims(meta.element_bounds()))
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Collect the names and drop the arrays guard before touching the
        // sessions lock: Debug must not nest ServerArrays over
        // ServerSessions.
        let names = {
            let arrays = self.inner.arrays.lock();
            arrays.values().map(|r| r.state.name.clone()).collect::<Vec<_>>()
        };
        f.debug_struct("Server")
            .field("arrays", &names)
            .field("sessions", &self.session_count())
            .finish()
    }
}
