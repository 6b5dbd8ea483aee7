//! Error type for the message-passing runtime.

use std::fmt;

/// Errors surfaced by the SPMD runtime, collectives, RMA and parallel I/O.
#[derive(Debug)]
pub enum MsgError {
    /// A peer rank panicked; all blocking operations abort with this error
    /// instead of deadlocking.
    Poisoned,
    /// A rank index was out of range for the communicator.
    BadRank { rank: usize, size: usize },
    /// Mismatched collective call (e.g. different payload sizes where equal
    /// sizes are required).
    CollectiveMismatch(String),
    /// Buffer size did not match the datatype/view.
    BufferSize { expected: usize, got: usize },
    /// Invalid datatype construction.
    BadDatatype(String),
    /// Underlying parallel file system error.
    Pfs(drx_pfs::PfsError),
    /// Window access out of bounds.
    WindowRange { rank: usize, offset: u64, len: u64, size: u64 },
    /// A collective failed on peer `rank` (which reports its own error);
    /// every other rank fails the call with this.
    PeerFailed { rank: usize },
    /// Generic invalid argument.
    Invalid(String),
}

impl fmt::Display for MsgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgError::Poisoned => write!(f, "a peer rank panicked; communicator is poisoned"),
            MsgError::BadRank { rank, size } => write!(f, "rank {rank} out of range (size {size})"),
            MsgError::CollectiveMismatch(why) => write!(f, "collective mismatch: {why}"),
            MsgError::BufferSize { expected, got } => {
                write!(f, "buffer size mismatch: expected {expected} bytes, got {got}")
            }
            MsgError::BadDatatype(why) => write!(f, "bad datatype: {why}"),
            MsgError::Pfs(e) => write!(f, "PFS error: {e}"),
            MsgError::WindowRange { rank, offset, len, size } => {
                write!(
                    f,
                    "window access [{offset}, {offset}+{len}) on rank {rank} exceeds size {size}"
                )
            }
            MsgError::PeerFailed { rank } => write!(f, "collective failed on rank {rank}"),
            MsgError::Invalid(why) => write!(f, "invalid argument: {why}"),
        }
    }
}

impl std::error::Error for MsgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MsgError::Pfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<drx_pfs::PfsError> for MsgError {
    fn from(e: drx_pfs::PfsError) -> Self {
        MsgError::Pfs(e)
    }
}

pub type Result<T> = std::result::Result<T, MsgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MsgError::Poisoned.to_string().contains("poisoned"));
        assert!(MsgError::BadRank { rank: 5, size: 4 }.to_string().contains("rank 5"));
        let e: MsgError = drx_pfs::PfsError::NoSuchFile("x".into()).into();
        assert!(e.to_string().contains("x"));
    }
}
