//! Versioned binary wire protocol for the DRX array service.
//!
//! A connection starts with a 10-byte handshake in each direction — the
//! magic `b"DRXS"`, the little-endian `u16` protocol version, and the
//! little-endian `u32` largest frame body the sender will accept. Each
//! side uses the *minimum* of the two advertised limits for everything it
//! sends, so neither peer can be made to allocate more than it offered.
//! After the handshake, each direction carries *frames*: a little-endian
//! `u32` body length followed by the body. A request body is an opcode
//! byte plus fields; a response body is a status byte plus fields. All
//! integers are little-endian, matching the `.xmd` metadata codec.
//!
//! The format is versioned through [`PROTO_VERSION`]: a server refuses a
//! handshake carrying a version it does not speak, and opcode/error-code
//! values are append-only. Version 2 added the max-frame field to the
//! handshake (a v1 handshake is 6 bytes and is rejected).

use crate::error::{ErrorCode, Result, ServerError};
use drx_mp::PoolStats;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// Connection magic, sent by both sides before any frame.
pub const PROTO_MAGIC: [u8; 4] = *b"DRXS";
/// Current protocol version.
pub const PROTO_VERSION: u16 = 2;
/// Default upper bound on a frame body, advertised in the handshake;
/// length prefixes above the negotiated limit are rejected as protocol
/// errors rather than allocated.
pub const MAX_FRAME: usize = 1 << 30;

const OP_OPEN: u8 = 1;
const OP_READ_REGION: u8 = 2;
const OP_WRITE_REGION: u8 = 3;
const OP_EXTEND: u8 = 4;
const OP_STAT: u8 = 5;
const OP_CLOSE: u8 = 6;

const RESP_OPENED: u8 = 0x80;
const RESP_DATA: u8 = 0x81;
const RESP_WRITTEN: u8 = 0x82;
const RESP_EXTENDED: u8 = 0x83;
const RESP_STAT: u8 = 0x84;
const RESP_CLOSED: u8 = 0x85;
const RESP_ERROR: u8 = 0xFF;

/// A client request. Regions are half-open `[lo, hi)` boxes in element
/// coordinates; region payloads are raw little-endian element bytes in
/// row-major (C) order of the region extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open the named array, returning a handle.
    Open { name: String },
    /// Read a region of the array as row-major element bytes.
    ReadRegion { handle: u32, lo: Vec<u64>, hi: Vec<u64> },
    /// Overwrite a region with row-major element bytes.
    WriteRegion { handle: u32, lo: Vec<u64>, hi: Vec<u64>, data: Vec<u8> },
    /// Grow dimension `dim` by `by` elements (append-only).
    Extend { handle: u32, dim: u32, by: u64 },
    /// Array shape plus server-side cache / I/O / lock statistics.
    Stat { handle: u32 },
    /// Release the handle.
    Close { handle: u32 },
}

/// Static description of an open array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// `DType::code()` of the element type.
    pub dtype: u8,
    pub bounds: Vec<u64>,
    pub chunk_shape: Vec<u64>,
}

impl ArrayInfo {
    pub fn rank(&self) -> usize {
        self.bounds.len()
    }
}

/// Payload of a `Stat` response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatReply {
    pub dtype: u8,
    pub bounds: Vec<u64>,
    pub chunk_shape: Vec<u64>,
    pub total_chunks: u64,
    pub payload_bytes: u64,
    /// Chunk-cache counters attributed to the requesting session.
    pub session_cache: PoolStats,
    /// Chunk-cache counters for the whole array (all sessions).
    pub global_cache: PoolStats,
    /// Cumulative PFS request count across the server's file system.
    pub pfs_requests: u64,
    /// Cumulative PFS bytes moved.
    pub pfs_bytes: u64,
    /// Coalesced fetch batches executed for this array.
    pub coalesced_batches: u64,
    /// Times a session blocked waiting for a chunk-range lock.
    pub lock_waits: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Opened { handle: u32, info: ArrayInfo },
    Data { data: Vec<u8> },
    Written,
    Extended { bounds: Vec<u64> },
    Stat(StatReply),
    Closed,
    Error { code: u16, message: String },
}

/// Length of the header of a `Data` response body — the status byte and
/// the `u32` payload length — which the payload bytes follow.
pub const DATA_HEADER: usize = 5;

// ---------------------------------------------------------------------------
// Body codec
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_dims(out: &mut Vec<u8>, dims: &[u64]) {
    out.push(dims.len() as u8);
    for &d in dims {
        put_u64(out, d);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_pool_stats(out: &mut Vec<u8>, s: &PoolStats) {
    put_u64(out, s.hits);
    put_u64(out, s.misses);
    put_u64(out, s.evictions);
    put_u64(out, s.writebacks);
}

/// Truncation-checked reader over a frame body.
struct Body<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Body { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(ServerError::protocol(format!(
                "truncated frame: wanted {n} bytes at {}, body is {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        // `take(N)` yields exactly `N` bytes, so the conversion only fails
        // if that invariant is broken — surface it as a protocol error
        // rather than a panic in the decode path.
        self.take(N)?
            .try_into()
            .map_err(|_| ServerError::protocol("internal: slice length mismatch".to_string()))
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn dims(&mut self) -> Result<Vec<u64>> {
        let k = self.u8()? as usize;
        (0..k).map(|_| self.u64()).collect()
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServerError::protocol("string field is not UTF-8"))
    }

    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn pool_stats(&mut self) -> Result<PoolStats> {
        Ok(PoolStats {
            hits: self.u64()?,
            misses: self.u64()?,
            evictions: self.u64()?,
            writebacks: self.u64()?,
        })
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(ServerError::protocol(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encode a request body (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Open { name } => {
            out.push(OP_OPEN);
            put_str(&mut out, name);
        }
        Request::ReadRegion { handle, lo, hi } => {
            out.push(OP_READ_REGION);
            put_u32(&mut out, *handle);
            put_dims(&mut out, lo);
            put_dims(&mut out, hi);
        }
        Request::WriteRegion { handle, lo, hi, data } => {
            out.push(OP_WRITE_REGION);
            put_u32(&mut out, *handle);
            put_dims(&mut out, lo);
            put_dims(&mut out, hi);
            put_bytes(&mut out, data);
        }
        Request::Extend { handle, dim, by } => {
            out.push(OP_EXTEND);
            put_u32(&mut out, *handle);
            put_u32(&mut out, *dim);
            put_u64(&mut out, *by);
        }
        Request::Stat { handle } => {
            out.push(OP_STAT);
            put_u32(&mut out, *handle);
        }
        Request::Close { handle } => {
            out.push(OP_CLOSE);
            put_u32(&mut out, *handle);
        }
    }
    out
}

/// Decode a request body.
pub fn decode_request(body: &[u8]) -> Result<Request> {
    let mut b = Body::new(body);
    let req = match b.u8()? {
        OP_OPEN => Request::Open { name: b.string()? },
        OP_READ_REGION => Request::ReadRegion { handle: b.u32()?, lo: b.dims()?, hi: b.dims()? },
        OP_WRITE_REGION => Request::WriteRegion {
            handle: b.u32()?,
            lo: b.dims()?,
            hi: b.dims()?,
            data: b.bytes()?,
        },
        OP_EXTEND => Request::Extend { handle: b.u32()?, dim: b.u32()?, by: b.u64()? },
        OP_STAT => Request::Stat { handle: b.u32()? },
        OP_CLOSE => Request::Close { handle: b.u32()? },
        op => return Err(ServerError::protocol(format!("unknown request opcode {op:#04x}"))),
    };
    b.finish()?;
    Ok(req)
}

/// Encode a response body (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Opened { handle, info } => {
            out.push(RESP_OPENED);
            put_u32(&mut out, *handle);
            out.push(info.dtype);
            put_dims(&mut out, &info.bounds);
            put_dims(&mut out, &info.chunk_shape);
        }
        Response::Data { data } => {
            out.push(RESP_DATA);
            put_bytes(&mut out, data);
        }
        Response::Written => out.push(RESP_WRITTEN),
        Response::Extended { bounds } => {
            out.push(RESP_EXTENDED);
            put_dims(&mut out, bounds);
        }
        Response::Stat(s) => {
            out.push(RESP_STAT);
            out.push(s.dtype);
            put_dims(&mut out, &s.bounds);
            put_dims(&mut out, &s.chunk_shape);
            put_u64(&mut out, s.total_chunks);
            put_u64(&mut out, s.payload_bytes);
            put_pool_stats(&mut out, &s.session_cache);
            put_pool_stats(&mut out, &s.global_cache);
            put_u64(&mut out, s.pfs_requests);
            put_u64(&mut out, s.pfs_bytes);
            put_u64(&mut out, s.coalesced_batches);
            put_u64(&mut out, s.lock_waits);
        }
        Response::Closed => out.push(RESP_CLOSED),
        Response::Error { code, message } => {
            out.push(RESP_ERROR);
            put_u16(&mut out, *code);
            put_str(&mut out, message);
        }
    }
    out
}

/// The header of a `Data` response body carrying `len` payload bytes:
/// `encode_response(&Response::Data { data })` is this header followed by
/// `data`, so a server can produce the payload in place behind it.
pub fn data_header(len: u32) -> [u8; DATA_HEADER] {
    let mut header = [RESP_DATA, 0, 0, 0, 0];
    header[1..].copy_from_slice(&len.to_le_bytes());
    header
}

/// Decode a response body.
pub fn decode_response(body: &[u8]) -> Result<Response> {
    let mut b = Body::new(body);
    let resp = match b.u8()? {
        RESP_OPENED => {
            let handle = b.u32()?;
            let dtype = b.u8()?;
            let bounds = b.dims()?;
            let chunk_shape = b.dims()?;
            Response::Opened { handle, info: ArrayInfo { dtype, bounds, chunk_shape } }
        }
        RESP_DATA => Response::Data { data: b.bytes()? },
        RESP_WRITTEN => Response::Written,
        RESP_EXTENDED => Response::Extended { bounds: b.dims()? },
        RESP_STAT => Response::Stat(StatReply {
            dtype: b.u8()?,
            bounds: b.dims()?,
            chunk_shape: b.dims()?,
            total_chunks: b.u64()?,
            payload_bytes: b.u64()?,
            session_cache: b.pool_stats()?,
            global_cache: b.pool_stats()?,
            pfs_requests: b.u64()?,
            pfs_bytes: b.u64()?,
            coalesced_batches: b.u64()?,
            lock_waits: b.u64()?,
        }),
        RESP_CLOSED => Response::Closed,
        RESP_ERROR => Response::Error { code: b.u16()?, message: b.string()? },
        op => return Err(ServerError::protocol(format!("unknown response opcode {op:#04x}"))),
    };
    b.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Framing and handshake over a byte stream
// ---------------------------------------------------------------------------

/// Write the handshake preamble: magic + version + the largest frame body
/// this side will accept.
pub fn write_handshake(w: &mut impl Write, max_frame: u32) -> std::io::Result<()> {
    w.write_all(&PROTO_MAGIC)?;
    w.write_all(&PROTO_VERSION.to_le_bytes())?;
    w.write_all(&max_frame.to_le_bytes())?;
    w.flush()
}

/// Read and validate the peer's handshake preamble; returns the peer's
/// advertised frame limit. The caller must cap everything it *sends* at
/// `min(own limit, returned limit)`.
pub fn read_handshake(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 10];
    r.read_exact(&mut buf).map_err(|e| ServerError::protocol(format!("handshake: {e}")))?;
    if buf[..4] != PROTO_MAGIC {
        return Err(ServerError::protocol("bad magic in handshake"));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != PROTO_VERSION {
        return Err(ServerError::protocol(format!(
            "protocol version {version} not supported (expected {PROTO_VERSION})"
        )));
    }
    Ok(u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]))
}

/// Write one length-prefixed frame. Bodies longer than `limit` (the
/// negotiated frame cap) fail with [`ErrorCode::FrameTooLarge`] before any
/// bytes hit the wire — in particular a body of 4 GiB or more, whose
/// length a `u32` prefix cannot represent, can never be silently
/// truncated. Prefix and body go out in one vectored write, so a large
/// body does not send its 4-byte prefix as a segment of its own.
pub fn write_frame(w: &mut impl Write, body: &[u8], limit: usize) -> Result<()> {
    if body.len() > limit || u32::try_from(body.len()).is_err() {
        return Err(ServerError::frame_too_large(body.len(), limit));
    }
    let prefix = (body.len() as u32).to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame, rejecting length prefixes above the
/// negotiated `limit` *before* allocating the body buffer (the length
/// field is untrusted input). Returns `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame(r: &mut impl Read, limit: usize) -> Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame_into(r, limit, &mut body)?.then_some(body))
}

/// [`read_frame`] into `body`, reusing its allocation; `body` holds
/// exactly the frame body afterwards. Returns `Ok(false)` on clean EOF at
/// a frame boundary.
pub fn read_frame_into(r: &mut impl Read, limit: usize, body: &mut Vec<u8>) -> Result<bool> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(ServerError::protocol(format!("frame header: {e}"))),
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > limit {
        return Err(ServerError::protocol(format!("frame of {n} bytes exceeds limit {limit}")));
    }
    body.resize(n, 0);
    r.read_exact(body).map_err(|e| ServerError::protocol(format!("frame body: {e}")))?;
    Ok(true)
}

/// Convenience: a `ServerError` rendered as an error response.
pub fn error_response(e: &ServerError) -> Response {
    Response::Error { code: e.code as u16, message: e.message.clone() }
}

/// Convenience: rebuild a `ServerError` from an error response.
pub fn response_error(code: u16, message: String) -> ServerError {
    ServerError::new(ErrorCode::from_u16(code).unwrap_or(ErrorCode::Internal), message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let body = encode_response(&resp);
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Open { name: "matrix".into() });
        roundtrip_request(Request::ReadRegion { handle: 7, lo: vec![0, 2, 4], hi: vec![1, 3, 9] });
        roundtrip_request(Request::WriteRegion {
            handle: 1,
            lo: vec![5],
            hi: vec![6],
            data: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        roundtrip_request(Request::Extend { handle: 2, dim: 1, by: 12 });
        roundtrip_request(Request::Stat { handle: 3 });
        roundtrip_request(Request::Close { handle: u32::MAX });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Opened {
            handle: 9,
            info: ArrayInfo { dtype: 4, bounds: vec![10, 12], chunk_shape: vec![2, 3] },
        });
        roundtrip_response(Response::Data { data: vec![0xAB; 100] });
        roundtrip_response(Response::Written);
        roundtrip_response(Response::Extended { bounds: vec![10, 16] });
        roundtrip_response(Response::Stat(StatReply {
            dtype: 2,
            bounds: vec![4, 4],
            chunk_shape: vec![2, 2],
            total_chunks: 4,
            payload_bytes: 128,
            session_cache: PoolStats { hits: 1, misses: 2, evictions: 3, writebacks: 4 },
            global_cache: PoolStats { hits: 5, misses: 6, evictions: 7, writebacks: 8 },
            pfs_requests: 9,
            pfs_bytes: 10,
            coalesced_batches: 11,
            lock_waits: 12,
        }));
        roundtrip_response(Response::Closed);
        roundtrip_response(Response::Error { code: 4, message: "out of bounds".into() });
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        // Empty body.
        assert!(decode_request(&[]).is_err());
        // Unknown opcode.
        assert!(decode_request(&[0x77]).is_err());
        assert!(decode_response(&[0x00]).is_err());
        // Truncated string length.
        assert!(decode_request(&[OP_OPEN, 5, 0, b'a']).is_err());
        // Trailing garbage.
        let mut body = encode_request(&Request::Stat { handle: 1 });
        body.push(0);
        assert!(decode_request(&body).is_err());
        // Non-UTF-8 name.
        assert!(decode_request(&[OP_OPEN, 2, 0, 0xFF, 0xFE]).is_err());
    }

    #[test]
    fn framing_roundtrip_and_eof() {
        let mut buf = Vec::new();
        write_handshake(&mut buf, MAX_FRAME as u32).unwrap();
        write_frame(&mut buf, b"hello", MAX_FRAME).unwrap();
        write_frame(&mut buf, b"", MAX_FRAME).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_handshake(&mut r).unwrap(), MAX_FRAME as u32);
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn handshake_rejects_bad_magic_and_version() {
        let mut r: &[u8] = b"NOPE\x01\x00\0\0\0\x01";
        assert!(read_handshake(&mut r).is_err());
        let mut r: &[u8] = &[b'D', b'R', b'X', b'S', 0xEE, 0xEE, 0, 0, 0, 1];
        assert!(read_handshake(&mut r).is_err());
        // A v1 (6-byte) handshake truncates and is rejected.
        let mut r: &[u8] = &[b'D', b'R', b'X', b'S', 1, 0];
        assert!(read_handshake(&mut r).is_err());
        let mut r: &[u8] = b"D";
        assert!(read_handshake(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // Regression: a hostile length prefix must not drive `vec![0; n]`.
        // With the cap checked first, even `u32::MAX` never allocates.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut &buf[..], MAX_FRAME).unwrap_err();
        assert_eq!(err.code, ErrorCode::Protocol);
        // The negotiated limit, not the compile-time default, is enforced.
        let mut small = Vec::new();
        write_frame(&mut small, &[0u8; 64], MAX_FRAME).unwrap();
        assert!(read_frame(&mut &small[..], 16).is_err());
        assert!(read_frame(&mut &small[..], 64).unwrap().is_some());
    }

    #[test]
    fn a_large_frame_is_one_write() {
        /// Accepts everything, counting the write calls that reach it.
        struct Counting {
            writes: usize,
            bytes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.writes += 1;
                let n = bufs.iter().map(|b| b.len()).sum();
                self.bytes += n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting { writes: 0, bytes: 0 };
        write_frame(&mut w, &[7u8; 64 * 1024], MAX_FRAME).unwrap();
        assert_eq!((w.writes, w.bytes), (1, 4 + 64 * 1024));
    }

    #[test]
    fn frame_too_large_is_a_typed_error_not_truncation() {
        // Regression: `body.len() as u32` used to truncate silently for
        // bodies of 4 GiB and more; now any body over the negotiated limit
        // is refused with a typed error and nothing is written.
        let mut out = Vec::new();
        let err = write_frame(&mut out, &[0u8; 100], 64).unwrap_err();
        assert_eq!(err.code, ErrorCode::FrameTooLarge);
        assert!(err.message.contains("100"));
        assert!(out.is_empty(), "no partial frame may reach the wire");
        // At the limit is fine.
        write_frame(&mut out, &[0u8; 64], 64).unwrap();
        assert_eq!(read_frame(&mut &out[..], 64).unwrap().unwrap().len(), 64);
    }
}
