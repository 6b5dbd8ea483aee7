//! TCP transport: a listener plus a fixed pool of worker threads, each
//! accepting connections and running the frame loop. One connection is one
//! session; a connection is served entirely by the worker that accepted
//! it (requests within a session execute in order, matching the
//! in-process client's semantics).

use crate::error::{Result, ServerError};
use crate::proto::{
    decode_request, encode_response, error_response, read_frame_into, read_handshake, write_frame,
    write_handshake, Request, MAX_FRAME,
};
use crate::server::Server;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A connection's reply buffer is dropped after a reply longer than this,
/// so an idle connection pins at most this much memory for reuse. Larger
/// than a 256 × 2048 f64 band reply (4 MiB).
const RETAINED_REPLY_BYTES: usize = 8 << 20;

/// Transport tuning for [`serve_with`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Acceptor/worker threads (one connection is served by one worker).
    pub threads: usize,
    /// Socket read/write deadline. A connection that neither completes a
    /// frame nor drains our writes within this window is dropped, freeing
    /// its worker — a wedged or dead client cannot stall the pool forever.
    /// `None` disables deadlines (a worker then trusts the peer's TCP
    /// stack to report disconnects).
    pub io_timeout: Option<Duration>,
    /// Largest frame body this server accepts, advertised in the
    /// handshake.
    pub max_frame: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { threads: 4, io_timeout: Some(Duration::from_secs(30)), max_frame: MAX_FRAME }
    }
}

/// A running TCP server. Dropping the handle (or calling
/// [`ServeHandle::shutdown`]) stops the workers and flushes the server.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    server: Server,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop_workers(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each blocked accept needs one wake-up connection.
        for _ in 0..self.workers.len() {
            // allow-discard: wake-up connection; failure means the worker already exited
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers.drain(..) {
            // allow-discard: a panicked worker is already dead; shutdown proceeds
            let _ = w.join();
        }
    }

    /// Stop accepting, join the workers, and flush all arrays.
    pub fn shutdown(mut self) -> Result<()> {
        self.stop_workers();
        self.server.flush_all()
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_workers();
            // allow-discard: Drop cannot propagate; explicit shutdown paths report flush errors
            let _ = self.server.flush_all();
        }
    }
}

/// Serve `server` on `addr` with `threads` acceptor/worker threads and the
/// default transport tuning.
pub fn serve(server: &Server, addr: impl ToSocketAddrs, threads: usize) -> Result<ServeHandle> {
    serve_with(server, addr, ServeConfig { threads, ..ServeConfig::default() })
}

/// Serve `server` on `addr` with explicit transport tuning.
pub fn serve_with(
    server: &Server,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let threads = config.threads.max(1);
    let mut workers = Vec::with_capacity(threads);
    for i in 0..threads {
        let listener = listener.try_clone()?;
        let server = server.clone();
        let stop = Arc::clone(&stop);
        let config = config.clone();
        let worker = std::thread::Builder::new()
            .name(format!("drx-server-{i}"))
            .spawn(move || worker_loop(listener, server, stop, config))
            .map_err(ServerError::from)?;
        workers.push(worker);
    }
    Ok(ServeHandle { addr, stop, workers, server: server.clone() })
}

fn worker_loop(listener: TcpListener, server: Server, stop: Arc<AtomicBool>, config: ServeConfig) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // allow-discard: per-connection errors are isolated; keep accepting
                let _ = serve_connection(&server, stream, &config);
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Run one connection's handshake and frame loop to completion.
fn serve_connection(server: &Server, stream: TcpStream, config: &ServeConfig) -> Result<()> {
    stream.set_nodelay(true).ok();
    // Deadlines cover the handshake too: a client that connects and then
    // never speaks cannot pin this worker.
    stream.set_read_timeout(config.io_timeout)?;
    stream.set_write_timeout(config.io_timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let theirs = read_handshake(&mut reader)?;
    write_handshake(&mut writer, config.max_frame.min(u32::MAX as usize) as u32)?;
    let limit = config.max_frame.min(theirs as usize);
    let session = server.open_session();
    let result = connection_loop(server, session, &mut reader, &mut writer, limit);
    server.close_session(session);
    result
}

fn connection_loop(
    server: &Server,
    session: u64,
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    limit: usize,
) -> Result<()> {
    // Both buffers live as long as the connection; a region read's reply
    // is built in `reply` and sent from there.
    let mut request = Vec::new();
    let mut reply = Vec::new();
    loop {
        match read_frame_into(reader, limit, &mut request) {
            Ok(true) => {}
            Ok(false) => return Ok(()), // clean disconnect
            Err(e) => {
                // Report, then drop the connection: after a framing error
                // (or a read deadline expiring mid-frame) the stream
                // position is unreliable.
                // allow-discard: best-effort error report on an already-broken stream
                let _ = write_frame(writer, &encode_response(&error_response(&e)), limit);
                return Err(e);
            }
        };
        let encoded;
        let body = match decode_request(&request) {
            Ok(Request::ReadRegion { handle, lo, hi }) => {
                server.read_region_reply(session, handle, &lo, &hi, limit, &mut reply)
            }
            decoded => {
                let resp =
                    decoded.map_or_else(|e| error_response(&e), |r| server.handle(session, r));
                encoded = encode_response(&resp);
                &encoded
            }
        };
        match write_frame(writer, body, limit) {
            Ok(()) => {}
            Err(e) if e.code == crate::error::ErrorCode::FrameTooLarge => {
                // The *response* outgrew the negotiated limit (e.g. a huge
                // region read over a small client cap): report the typed
                // error in-band and keep the connection alive.
                write_frame(writer, &encode_response(&error_response(&e)), limit)?;
            }
            Err(e) => return Err(e),
        }
        if reply.len() > RETAINED_REPLY_BYTES {
            reply = Vec::new();
        }
    }
}
