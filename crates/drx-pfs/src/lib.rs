//! # drx-pfs — simulated striped parallel file system
//!
//! A deterministic stand-in for the PVFS2 cluster file system the paper's
//! DRX-MP testbed ran on. Logical files are striped round-robin over `N`
//! simulated I/O servers; every server request is charged against a
//! [`CostModel`] (seek + per-request overhead + transfer time), and full
//! request statistics are kept per server.
//!
//! A server request covers one contiguous run of the server's local stream
//! with a scatter/gather list on the memory side (PVFS2 list I/O): the
//! fragments of one vectored call ([`PfsFile::read_pieces`],
//! [`PfsFile::write_pieces`]) that continue a server's local run join that
//! server's open request, so a contiguous read of `k` stripe rounds costs
//! one request per server. The request is also the unit of accounting and
//! of retry; the storage stream still sees one operation per memory
//! buffer.
//!
//! The simulator exists because the evaluation experiments (E4 parallel
//! collective I/O, E5 chunk-vs-stripe alignment) depend on the *striping
//! geometry* — which server a byte range hits and how requests fragment at
//! stripe boundaries — not on kernel-level details. Memory backing makes
//! benches deterministic; disk backing exercises real I/O through the same
//! code path.
//!
//! ```
//! use drx_pfs::Pfs;
//!
//! let pfs = Pfs::memory(4, 1024).unwrap(); // 4 servers, 1 KiB stripes
//! let f = pfs.create("demo.xta").unwrap();
//! f.write_at(0, &[42u8; 4096]).unwrap();   // one stripe per server
//! assert_eq!(pfs.stats().total_requests(), 4);
//! pfs.reset_stats();
//! let _ = f.read_vec(0, 4096).unwrap();    // also: one run per server
//! f.write_at(4096, &[7u8; 8192]).unwrap(); // two rounds, one run per server
//! assert_eq!(pfs.stats().total_requests(), 8);
//! assert_eq!(f.read_vec(1000, 100).unwrap(), vec![42u8; 100]);
//! ```

/// Re-export of the deterministic fault-injection toolkit (`drx-fault`):
/// scripts, the injector, and the crash-consistency file model.
pub use drx_fault as fault;

pub mod backend;
pub mod error;
pub mod file;
pub(crate) mod par;
pub mod retry;
pub mod server;
pub mod stats;
pub mod striping;

pub use backend::{CrashBackend, FaultyBackend, FileBackend, MemBackend, Storage};
pub use error::{PfsError, Result};
pub use file::{Pfs, PfsConfig, PfsFile};
pub use retry::RetryPolicy;
pub use server::{Backing, IoServer};
pub use stats::{CostModel, PfsStats, ServerStats, SIZE_BUCKETS, SIZE_BUCKET_LABELS};
pub use striping::{Fragment, StripeMap};
