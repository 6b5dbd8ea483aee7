//! Server-side error type and the stable wire error codes it maps to.

use std::fmt;

/// Stable error codes carried in `Response::Error` frames. Codes are part
/// of the wire protocol: new codes may be appended, existing values never
/// change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Malformed frame or field (protocol-level).
    Protocol = 1,
    /// No array with the requested name.
    NoSuchArray = 2,
    /// Unknown or already-closed handle.
    BadHandle = 3,
    /// Region or index outside the array bounds, or rank mismatch.
    OutOfBounds = 4,
    /// Request is well-formed but invalid (bad dimension, zero extent,
    /// payload length mismatch, ...).
    BadRequest = 5,
    /// Underlying storage or metadata failure.
    Internal = 6,
    /// Part of the requested range lives on a stripe server that is down;
    /// retry later or read a range the surviving servers hold (degraded
    /// mode).
    Unavailable = 7,
    /// The frame body exceeds the negotiated frame-size limit; the frame
    /// was never sent (nothing is truncated on the wire).
    FrameTooLarge = 8,
}

impl ErrorCode {
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::NoSuchArray,
            3 => ErrorCode::BadHandle,
            4 => ErrorCode::OutOfBounds,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Unavailable,
            8 => ErrorCode::FrameTooLarge,
            _ => return None,
        })
    }
}

/// Error type for everything in this crate.
#[derive(Debug)]
pub struct ServerError {
    pub code: ErrorCode,
    pub message: String,
}

impl ServerError {
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServerError { code, message: message.into() }
    }

    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Protocol, message)
    }

    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    pub fn frame_too_large(len: usize, limit: usize) -> Self {
        Self::new(
            ErrorCode::FrameTooLarge,
            format!("frame body of {len} bytes exceeds the negotiated limit {limit}"),
        )
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// The wire code of a core error: region, index and rank errors are
/// `OutOfBounds`, everything else a `BadRequest`.
fn code_of(e: &drx_core::DrxError) -> ErrorCode {
    match e {
        drx_core::DrxError::IndexOutOfBounds { .. }
        | drx_core::DrxError::AddressOutOfBounds { .. }
        | drx_core::DrxError::RankMismatch { .. }
        | drx_core::DrxError::BadRank(_) => ErrorCode::OutOfBounds,
        _ => ErrorCode::BadRequest,
    }
}

impl From<drx_core::DrxError> for ServerError {
    fn from(e: drx_core::DrxError) -> Self {
        ServerError::new(code_of(&e), e.to_string())
    }
}

impl From<drx_pfs::PfsError> for ServerError {
    fn from(e: drx_pfs::PfsError) -> Self {
        let code = match &e {
            drx_pfs::PfsError::NoSuchFile(_) => ErrorCode::NoSuchArray,
            drx_pfs::PfsError::Unavailable { .. } => ErrorCode::Unavailable,
            _ => ErrorCode::Internal,
        };
        ServerError::new(code, e.to_string())
    }
}

impl From<drx_mp::MpError> for ServerError {
    fn from(e: drx_mp::MpError) -> Self {
        // Planner validation errors keep their region codes, and a down
        // stripe server keeps its typed code through the MpError wrapper
        // so remote clients can distinguish degraded-mode misses from
        // genuine storage corruption.
        let code = match &e {
            drx_mp::MpError::Core(core) => return ServerError::new(code_of(core), e.to_string()),
            drx_mp::MpError::Pfs(drx_pfs::PfsError::Unavailable { .. }) => ErrorCode::Unavailable,
            drx_mp::MpError::Pfs(drx_pfs::PfsError::NoSuchFile(_)) => ErrorCode::NoSuchArray,
            _ => ErrorCode::Internal,
        };
        ServerError::new(code, e.to_string())
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::new(ErrorCode::Internal, e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;
    use drx_core::DrxError;
    use drx_mp::MpError;

    #[test]
    fn planner_errors_keep_their_region_codes() {
        let oob = DrxError::IndexOutOfBounds { index: vec![8, 8], bounds: vec![6, 6] };
        let rank = DrxError::RankMismatch { expected: 2, got: 1 };
        for e in [MpError::Core(oob), MpError::Core(rank), MpError::Core(DrxError::BadRank(0))] {
            assert_eq!(ServerError::from(e).code, ErrorCode::OutOfBounds);
        }
        let size = MpError::Core(DrxError::BufferSize { expected: 4, got: 3 });
        assert_eq!(ServerError::from(size).code, ErrorCode::BadRequest);
        let down = MpError::Pfs(drx_pfs::PfsError::Unavailable { server: 1 });
        assert_eq!(ServerError::from(down).code, ErrorCode::Unavailable);
        assert_eq!(ServerError::from(MpError::Invalid("x".into())).code, ErrorCode::Internal);
    }
}
