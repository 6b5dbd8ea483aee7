//! Error type for the parallel file system simulator.

use std::fmt;

/// Errors surfaced by the PFS layer.
#[derive(Debug)]
pub enum PfsError {
    /// Real I/O failure from a disk backend.
    Io(std::io::Error),
    /// A read touched bytes beyond the logical end of file.
    OutOfRange { offset: u64, len: u64, file_len: u64 },
    /// The file name is unknown.
    NoSuchFile(String),
    /// The file already exists (on exclusive create).
    AlreadyExists(String),
    /// Invalid configuration (zero servers, zero stripe size, …).
    Config(String),
    /// The I/O server holding part of the range is down. Not transient:
    /// callers surface it (degraded mode) rather than spin on retries.
    Unavailable { server: usize },
    /// A read or write moved fewer bytes than requested (transient — the
    /// retry policy re-issues the full request).
    ShortIo { server: usize, expected: usize, got: usize },
    /// A write persisted only a prefix before the server failed — the
    /// simulated crash point. Not transient: retrying cannot un-tear it.
    Torn { server: usize, written: usize },
}

impl fmt::Display for PfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfsError::Io(e) => write!(f, "I/O error: {e}"),
            PfsError::OutOfRange { offset, len, file_len } => {
                write!(f, "read [{offset}, {offset}+{len}) beyond EOF {file_len}")
            }
            PfsError::NoSuchFile(name) => write!(f, "no such file: {name}"),
            PfsError::AlreadyExists(name) => write!(f, "file exists: {name}"),
            PfsError::Config(why) => write!(f, "bad PFS configuration: {why}"),
            PfsError::Unavailable { server } => {
                write!(f, "I/O server {server} is unavailable")
            }
            PfsError::ShortIo { server, expected, got } => {
                write!(f, "short I/O on server {server}: {got} of {expected} bytes")
            }
            PfsError::Torn { server, written } => {
                write!(f, "torn write on server {server}: only {written} bytes persisted")
            }
        }
    }
}

impl PfsError {
    /// Whether a retry can plausibly succeed: `EINTR` and short transfers
    /// are re-issuable; everything else (bad config, down server, torn
    /// write, out-of-range) is surfaced to the caller immediately.
    pub fn is_transient(&self) -> bool {
        match self {
            PfsError::Io(e) => e.kind() == std::io::ErrorKind::Interrupted,
            PfsError::ShortIo { .. } => true,
            _ => false,
        }
    }
}

impl std::error::Error for PfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PfsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PfsError {
    fn from(e: std::io::Error) -> Self {
        PfsError::Io(e)
    }
}

pub type Result<T> = std::result::Result<T, PfsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(PfsError::NoSuchFile("x".into()).to_string().contains("x"));
        assert!(PfsError::OutOfRange { offset: 5, len: 10, file_len: 8 }
            .to_string()
            .contains("EOF 8"));
        assert!(PfsError::Unavailable { server: 1 }.to_string().contains("unavailable"));
        assert!(PfsError::ShortIo { server: 0, expected: 8, got: 4 }
            .to_string()
            .contains("4 of 8"));
        assert!(PfsError::Torn { server: 2, written: 5 }.to_string().contains("torn"));
    }

    #[test]
    fn transience_classification() {
        let eintr = std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR");
        assert!(PfsError::Io(eintr).is_transient());
        assert!(PfsError::ShortIo { server: 0, expected: 8, got: 4 }.is_transient());
        let other = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "no");
        assert!(!PfsError::Io(other).is_transient());
        assert!(!PfsError::Unavailable { server: 0 }.is_transient());
        assert!(!PfsError::Torn { server: 0, written: 1 }.is_transient());
        assert!(!PfsError::NoSuchFile("x".into()).is_transient());
    }
}
