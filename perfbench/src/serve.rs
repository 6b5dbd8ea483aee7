//! `serve`: `Server` over TCP with a 1024-chunk cache (half of a 4096×2048
//! f64 array in 64² chunks) and 2 serve threads. Two client connections
//! each run a closed loop from their own thread: 60% 1-element get, 20%
//! 1-element set, 15% unaligned 64×64 tile read, 4% tile write, 1%
//! 256×2048 band read, chunks picked Zipf-skewed; every 25th operation
//! appends to the client's own time-series log.
//!
//! Wire, socket, lock table, the shared cache and the server's own
//! per-element region copy dominate; `DrxFile` kernels and collectives
//! are absent. Client `c` writes only columns `[1024c, 1024c + 1024)`, so
//! every element has one writer while reads and chunk locks are shared.

use crate::bulk::{grown_array, FileLog};
use crate::common::*;
use crate::oracle::{Log, Oracle, LOG_SEED, LOG_STEPS, MAX_VERSION};
use crate::replay::ServerShadow;
use drx_core::{ArrayMeta, Region};
use drx_mp::{DrxFile, XMD_SUFFIX};
use drx_pfs::Pfs;
use drx_server::proto::{self, decode_request, decode_response, encode_request, encode_response};
use drx_server::{serve_with, Request, Response, ServeConfig, ServeHandle, Server, ServerConfig};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

const ROWS: usize = 4096;
const COLS: usize = 2048;
const HALF: usize = COLS / 2;
const CACHE_CHUNKS: usize = 1024;
const SETUPS: usize = 5;
const ZIPF_S: f64 = 0.9;
const APPEND_EVERY: u64 = 25;
const TRACE_WARMUP: f64 = 0.25;
/// Every log array the server opened keeps its cache frames, so the
/// retired logs stay small.
const LOG: Log = Log { side: 32 };

/// A TCP client speaking the crate's wire protocol through its public
/// codec and framing functions, the same calls `TcpClient`'s transport
/// makes, so a traced call can time each of them.
pub struct Wire {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    limit: usize,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Res<Wire> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        let mut writer = BufWriter::new(stream.try_clone().map_err(err("clone"))?);
        let mut reader = BufReader::new(stream);
        proto::write_handshake(&mut writer, proto::MAX_FRAME as u32).map_err(err("handshake"))?;
        let theirs = proto::read_handshake(&mut reader).map_err(err("handshake"))?;
        Ok(Wire { reader, writer, limit: proto::MAX_FRAME.min(theirs as usize) })
    }

    fn round_trip(&mut self, body: &[u8]) -> Res<Vec<u8>> {
        proto::write_frame(&mut self.writer, body, self.limit).map_err(err("write frame"))?;
        proto::read_frame(&mut self.reader, self.limit)
            .map_err(err("read frame"))?
            .ok_or_else(|| "server closed".into())
    }

    pub fn call(&mut self, req: &Request) -> Res<Response> {
        let body = self.round_trip(&encode_request(req))?;
        decode_response(&body).map_err(err("decode"))
    }

    /// A call with client encode, round trip and client decode timed.
    /// Returns the response, both frame bodies and the round-trip time.
    fn call_traced(
        &mut self,
        req: &Request,
        l: &mut Layers,
    ) -> Res<(Response, Vec<u8>, Vec<u8>, f64)> {
        let body = l.time("proto.encode", || encode_request(req));
        let (resp, rt) = timed(|| self.round_trip(&body));
        let resp = resp?;
        let decoded = l.time("proto.decode", || decode_response(&resp)).map_err(err("decode"))?;
        l.add("n.frame_bytes", (body.len() + resp.len() + 8) as f64);
        Ok((decoded, body, resp, rt))
    }
}

fn expect_data(resp: Response) -> Res<Vec<f64>> {
    match resp {
        Response::Data { data } => Ok(f64s(&data)),
        other => Err(format!("expected data, got {other:?}")),
    }
}

fn expect(resp: Response, what: &str) -> Res<()> {
    match resp {
        Response::Written | Response::Extended { .. } | Response::Closed => Ok(()),
        other => Err(format!("{what}: unexpected {other:?}")),
    }
}

pub fn open(wire: &mut Wire, name: &str) -> Res<u32> {
    match wire.call(&Request::Open { name: name.into() })? {
        Response::Opened { handle, .. } => Ok(handle),
        other => Err(format!("open {name}: {other:?}")),
    }
}

fn dims(v: &[usize]) -> Vec<u64> {
    v.iter().map(|&x| x as u64).collect()
}

fn read_req(handle: u32, r: &Region) -> Request {
    Request::ReadRegion { handle, lo: dims(r.lo()), hi: dims(r.hi()) }
}

fn write_req(handle: u32, r: &Region, data: &[f64]) -> Request {
    Request::WriteRegion { handle, lo: dims(r.lo()), hi: dims(r.hi()), data: le_bytes(data) }
}

enum Op {
    Get(Region),
    Set(Region),
    TileRead(Region),
    TileWrite(Region),
    Band(Region),
    Append,
}

fn region(lo: [usize; 2], hi: [usize; 2]) -> Region {
    Region::new(lo.to_vec(), hi.to_vec()).expect("bench region")
}

/// Chunk-skewed operation generator of one client.
struct Gen {
    rng: Rng,
    all: Zipf,
    own: Zipf,
    client: usize,
    n: u64,
}

impl Gen {
    /// A chunk origin (Zipf over the whole grid or over own columns).
    fn chunk(&mut self, own: bool) -> (usize, usize) {
        if own {
            let k = self.own.sample(&mut self.rng);
            ((k / 16) * 64, self.client * HALF + (k % 16) * 64)
        } else {
            let k = self.all.sample(&mut self.rng);
            ((k / 32) * 64, (k % 32) * 64)
        }
    }

    fn point(&mut self, own: bool) -> Region {
        let (r, c) = self.chunk(own);
        let (r, c) = (r + self.rng.below(64), c + self.rng.below(64));
        region([r, c], [r + 1, c + 1])
    }

    /// An unaligned 64×64 tile near a skewed chunk, kept inside the array
    /// (and inside own columns for writes).
    fn tile(&mut self, own: bool) -> Region {
        let (r, c) = self.chunk(own);
        let r = (r + self.rng.below(64)).min(ROWS - 64);
        let (c_lo, c_hi) =
            if own { (self.client * HALF, (self.client + 1) * HALF - 64) } else { (0, COLS - 64) };
        let c = (c + self.rng.below(64)).clamp(c_lo, c_hi);
        region([r, c], [r + 64, c + 64])
    }

    fn next(&mut self) -> Op {
        self.n += 1;
        if self.n.is_multiple_of(APPEND_EVERY) {
            return Op::Append;
        }
        let u = self.rng.unit();
        if u < 0.60 {
            Op::Get(self.point(false))
        } else if u < 0.80 {
            Op::Set(self.point(true))
        } else if u < 0.95 {
            Op::TileRead(self.tile(false))
        } else if u < 0.99 {
            Op::TileWrite(self.tile(true))
        } else {
            let r = self.rng.below(ROWS - 256 + 1);
            Op::Band(region([r, 0], [r + 256, COLS]))
        }
    }
}

/// One client's connection and its own time-series log.
struct ClientState {
    wire: Wire,
    main: u32,
    log: u32,
    log_gen: u32,
    t: usize,
    version: u32,
    client: usize,
}

/// What the traced replay needs: the shadow of the server's pipeline and
/// the array metadata.
struct Tracer {
    shadow: ServerShadow,
    meta: ArrayMeta,
}

struct Shared<'a> {
    pfs: &'a Pfs,
    oracle: &'a Oracle,
    /// Writes started by any client, and those not yet mirrored on the
    /// shadow; a replay is byte-compared only when neither moved.
    writes: AtomicU64,
    inflight: AtomicU64,
}

impl ClientState {
    fn log_name(&self) -> String {
        FileLog::name(&format!("serve-log{}", self.client), self.log_gen)
    }

    fn next_version(&mut self) -> u32 {
        assert!(self.version < MAX_VERSION);
        self.version += 1;
        self.version
    }

    /// Retire a full log: verify over the wire, close, delete and create
    /// the next one (creation is administration, done in-process).
    fn roll(&mut self, sh: &Shared) -> Res<usize> {
        if self.t < LOG_SEED + LOG_STEPS {
            return Ok(0);
        }
        let data = expect_data(self.wire.call(&read_req(self.log, &LOG.region(0, self.t)))?)?;
        let bad = LOG.check(&data, self.t);
        expect(self.wire.call(&Request::Close { handle: self.log })?, "close log")?;
        DrxFile::<f64>::delete(sh.pfs, &self.log_name()).map_err(err("log delete"))?;
        self.log_gen += 1;
        FileLog::create(sh.pfs, &self.log_name(), LOG)?;
        let name = self.log_name();
        self.log = open(&mut self.wire, &name)?;
        self.t = LOG_SEED;
        Ok(bad)
    }

    fn exec(
        &mut self,
        op: Op,
        sh: &Shared,
        rec: &mut Recorder,
        tr: Option<(&Tracer, &mut Layers)>,
    ) -> Res<()> {
        let (req, region, kind, write_v) = match &op {
            Op::Append => {
                let bad = self.roll(sh)?;
                let slice = LOG.region(self.t, self.t + 1);
                let data = LOG.values(self.t, self.t + 1);
                let ext = Request::Extend { handle: self.log, dim: 0, by: 1 };
                let wr = write_req(self.log, &slice, &data);
                // Log appends are not replayed: their time stays unattributed.
                let (res, secs) = timed(|| -> Res<()> {
                    expect(self.wire.call(&ext)?, "extend")?;
                    expect(self.wire.call(&wr)?, "log write")
                });
                res?;
                self.t += 1;
                rec.record(Kind::Append, secs, 0, data.len() as u64 * 8, bad == 0);
                return Ok(());
            }
            Op::Get(r) => (read_req(self.main, r), r.clone(), Kind::Point, None),
            Op::TileRead(r) | Op::Band(r) => (read_req(self.main, r), r.clone(), Kind::Slab, None),
            Op::Set(r) | Op::TileWrite(r) => {
                let v = self.next_version();
                let data = sh.oracle.fill(r, drx_core::Layout::C, v);
                let kind = if matches!(op, Op::Set(_)) { Kind::Point } else { Kind::Slab };
                (write_req(self.main, r, &data), r.clone(), kind, Some(v))
            }
        };
        let bytes = region.volume() * 8;
        let snap = if write_v.is_none() { sh.oracle.snapshot(&region) } else { Vec::new() };
        let (writes0, inflight0) =
            (sh.writes.load(Ordering::SeqCst), sh.inflight.load(Ordering::SeqCst));
        if let Some(v) = write_v {
            sh.writes.fetch_add(1, Ordering::SeqCst);
            sh.inflight.fetch_add(1, Ordering::SeqCst);
            sh.oracle.begin(&region, v);
        }
        let (resp, secs, mut bad) = match tr {
            None => {
                let (resp, secs) = timed(|| self.wire.call(&req));
                (resp?, secs, 0)
            }
            Some((tracer, l)) => {
                let codec = |l: &Layers| l.get("proto.encode") + l.get("proto.decode");
                let before = codec(l);
                let (resp, body, resp_body, rt) = self.wire.call_traced(&req, l)?;
                let client_codec = codec(l) - before;
                // Server side, replayed: decode the request, run the
                // server's pipeline on the shadow, encode the reply.
                let before = codec(l);
                let req2 =
                    l.time("proto.decode", || decode_request(&body)).map_err(err("decode"))?;
                let stages = |l: &Layers| {
                    ["core.plan", "lock.acquire", "cache.read", "server.copy"]
                        .iter()
                        .map(|k| l.get(k))
                        .sum::<f64>()
                };
                let handle0 = stages(l);
                let reply = match req2 {
                    Request::WriteRegion { data, .. } => {
                        tracer.shadow.write(&tracer.meta, &region, &data, l)?;
                        Response::Written
                    }
                    _ => Response::Data { data: tracer.shadow.read(&tracer.meta, &region, l)? },
                };
                let handle = stages(l) - handle0;
                l.add("server.handle", handle);
                let body2 = l.time("proto.encode", || encode_response(&reply));
                let server_codec = codec(l) - before;
                l.add("tcp.socket", rt - handle - server_codec);
                l.add("n.user_bytes", bytes as f64);
                // Compare only when no other write was in flight at the
                // start or began since, so server and shadow hold the same
                // data.
                let quiet = inflight0 == 0
                    && sh.writes.load(Ordering::SeqCst) == writes0 + u64::from(write_v.is_some());
                let bad = usize::from(quiet && body2 != resp_body);
                (resp, rt + client_codec, bad)
            }
        };
        match write_v {
            Some(v) => {
                expect(resp, "write")?;
                sh.oracle.commit(&region, v);
                sh.inflight.fetch_sub(1, Ordering::SeqCst);
                rec.record(kind, secs, 0, bytes, bad == 0);
            }
            None => {
                let data = expect_data(resp)?;
                bad += sh.oracle.check(&region, drx_core::Layout::C, &data, Some(&snap));
                rec.record(kind, secs, bytes, 0, bad == 0);
            }
        }
        Ok(())
    }
}

/// Field order is drop order: the client connections must close before
/// the serving threads, which block on them, are joined.
struct Setup {
    clients: Vec<ClientState>,
    serving: ServeHandle,
    server: Server,
    pfs: Pfs,
    oracle: Oracle,
}

fn setup() -> Res<Setup> {
    let pfs = crate::bulk::pfs()?;
    let oracle = Oracle::new(&[ROWS, COLS]);
    drop(grown_array(&pfs, "serve", &oracle)?);
    for c in 0..2 {
        FileLog::create(&pfs, &FileLog::name(&format!("serve-log{c}"), 0), LOG)?;
    }
    let server = Server::new(pfs.clone(), ServerConfig { cache_chunks: CACHE_CHUNKS });
    let serving =
        serve_with(&server, "127.0.0.1:0", ServeConfig { threads: 2, ..ServeConfig::default() })
            .map_err(err("serve"))?;
    let mut clients = Vec::new();
    for client in 0..2 {
        let mut wire = Wire::connect(serving.addr())?;
        let main = open(&mut wire, "serve")?;
        let log = open(&mut wire, &FileLog::name(&format!("serve-log{client}"), 0))?;
        clients.push(ClientState { wire, main, log, log_gen: 0, t: LOG_SEED, version: 1, client });
    }
    Ok(Setup { clients, serving, server, pfs, oracle })
}

/// Counters of the main array from the server's `Stat` reply plus the
/// benchmark's own PFS and kernel snapshot.
fn snap(s: &mut Setup) -> Res<Snap> {
    let mut out = Snap::take(&s.pfs);
    let c = &mut s.clients[0];
    match c.wire.call(&Request::Stat { handle: c.main })? {
        Response::Stat(st) => {
            out.cache = st.global_cache;
            out.batches = st.coalesced_batches;
            out.lock_waits = st.lock_waits;
            Ok(out)
        }
        other => Err(format!("stat: {other:?}")),
    }
}

/// Both clients run their closed loops for `secs`.
fn phase(
    s: &mut Setup,
    gens: &mut [Gen],
    secs: f64,
    tracer: Option<&Tracer>,
) -> Res<(Recorder, Layers)> {
    let shared = Shared {
        pfs: &s.pfs,
        oracle: &s.oracle,
        writes: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
    };
    let start = Barrier::new(2);
    let clock = Clock::start(secs);
    let results: Vec<Res<(Recorder, Layers)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(c, g)| {
                let (shared, start, clock) = (&shared, &start, &clock);
                scope.spawn(move || -> Res<(Recorder, Layers)> {
                    let mut rec = Recorder::default();
                    let mut l = Layers::default();
                    // The shadow cache starts cold: the first part of a
                    // traced phase only warms it and is not recorded.
                    let (mut warm_rec, mut warm_l) = (Recorder::default(), Layers::default());
                    start.wait();
                    while clock.running() {
                        let warming = tracer.is_some() && clock.elapsed() < secs * TRACE_WARMUP;
                        let (rec, l) =
                            if warming { (&mut warm_rec, &mut warm_l) } else { (&mut rec, &mut l) };
                        let op = g.next();
                        let tr = tracer.map(|t| (t, l));
                        c.exec(op, shared, rec, tr)?;
                    }
                    rec.failed += warm_rec.failed;
                    Ok((rec, l))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    for r in results {
        let (r, l) = r?;
        rec.merge(&r);
        layers.merge(&l);
    }
    Ok((rec, layers))
}

pub fn run(cfg: &Cfg) -> Res<Outcome> {
    // The 32 KiB chunk, tile and cache-frame buffers stay on the heap; the
    // 4 MiB band replies and frames are fresh `mmap` memory in every run.
    if !pin_allocator(1 << 20) {
        eprintln!("serve: allocator thresholds not pinned here; throughput varies more");
    }
    let (mut s, setup_s) = setup_n(SETUPS, setup)?;
    let mut rng = Rng::new(cfg.seed);
    // Both clients share the popularity order, so hot chunks are shared.
    let order_seed = rng.next_u64();
    let mut gens: Vec<Gen> = (0..2)
        .map(|client| Gen {
            rng: rng.fork(client as u64 + 1),
            all: Zipf::new(ROWS / 64 * COLS / 64, ZIPF_S, &mut Rng::new(order_seed)),
            own: Zipf::new(
                ROWS / 64 * HALF / 64,
                ZIPF_S,
                &mut Rng::new(order_seed ^ (client as u64 + 1)),
            ),
            client,
            n: 0,
        })
        .collect();
    if cfg.corrupt {
        // The globally hottest chunk, before the server has cached it.
        let meta = read_meta(&s.pfs, "serve")?;
        let k = gens[0].all.hottest();
        let addr = meta.grid().address(&[k / 32, k % 32]).map_err(err("address"))?;
        let cb = meta.chunk_bytes();
        let xta = s.pfs.open(&format!("serve{}", drx_mp::XTA_SUFFIX)).map_err(err("open"))?;
        xta.write_at(addr * cb, &vec![0xA5; cb as usize]).map_err(err("corrupt"))?;
    }
    let before = snap(&mut s)?;
    let (untraced, _) = phase(&mut s, &mut gens, cfg.phase_secs(), None)?;
    let counters = snap(&mut s)?.delta(&before);
    let traced = if cfg.trace {
        // The shadow copies the payload, so the server's dirty frames must
        // be on storage first.
        s.server.flush_all().map_err(err("flush"))?;
        let meta = read_meta(&s.pfs, "serve")?;
        let xta = s.pfs.open(&format!("serve{}", drx_mp::XTA_SUFFIX)).map_err(err("open"))?;
        let shadow = ServerShadow::new(&xta, meta.chunk_bytes() as usize, CACHE_CHUNKS)?;
        let tracer = Tracer { shadow, meta };
        let (rec, l) = phase(&mut s, &mut gens, cfg.phase_secs(), Some(&tracer))?;
        Some((rec, l))
    } else {
        None
    };
    for c in &mut s.clients {
        expect(c.wire.call(&Request::Close { handle: c.main })?, "close")?;
    }
    let Setup { serving, clients, .. } = s;
    drop(clients);
    serving.shutdown().map_err(err("shutdown"))?;
    Ok(Outcome { setup_s, untraced, counters, traced })
}

pub fn read_meta(pfs: &Pfs, name: &str) -> Res<ArrayMeta> {
    let xmd = pfs.open(&format!("{name}{XMD_SUFFIX}")).map_err(err("open"))?;
    ArrayMeta::decode(&xmd.read_vec(0, xmd.len() as usize).map_err(err("read xmd"))?)
        .map_err(err("decode xmd"))
}
