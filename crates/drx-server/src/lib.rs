//! # drx-server — a concurrent multi-client array service over DRX files
//!
//! The serial DRX library ([`drx_mp::DrxFile`]) is single-owner: one
//! process, one handle, no sharing. This crate turns a set of DRX arrays
//! into a *service* many clients use at once:
//!
//! * **Sessions** issue `Open` / `ReadRegion` / `WriteRegion` / `Extend` /
//!   `Stat` / `Close` requests ([`proto`]), over an in-process [`Client`]
//!   or the versioned binary TCP protocol ([`serve`] / [`TcpClient`]).
//! * **Chunk-range locking** ([`lock`]) gives region operations
//!   reader-shared / writer-exclusive access to exactly the chunks they
//!   touch, acquired all-or-nothing (deadlock-free by construction).
//! * **Extends serialize on the array metadata**, not on chunks: the
//!   axial-vector mapping `F*` is append-only (Otoo & Rotem's defining
//!   property), so growing the array never invalidates the address of any
//!   chunk an in-flight operation holds.
//! * **A shared chunk cache** ([`cache`]) backed by `drx_mp::ChunkPool`
//!   serves all sessions under one mutex, with per-session and global
//!   hit/miss statistics.
//! * **Run coalescing**: a request's misses are fetched in one batch, each
//!   run of adjacent chunks with a single `drx-pfs` request, so region
//!   traffic costs fewer PFS round trips than naive per-chunk I/O.
//!   Misses of different sessions are not merged (under 0.5% of the
//!   `serve` workload's fetches could have been).
//!
//! ```
//! use drx_mp::DrxFile;
//! use drx_pfs::Pfs;
//! use drx_server::{Client, Server, ServerConfig};
//!
//! let pfs = Pfs::memory(4, 4096).unwrap();
//! DrxFile::<f64>::create(&pfs, "grid", &[2, 2], &[4, 4]).unwrap();
//!
//! let server = Server::new(pfs, ServerConfig::default());
//! let mut client = Client::connect(&server);
//! let (h, info) = client.open("grid").unwrap();
//! assert_eq!(info.bounds, vec![4, 4]);
//! client.write_region_from::<f64>(h, &[0, 0], &[1, 4], &[1.0, 2.0, 3.0, 4.0]).unwrap();
//! let row = client.read_region_as::<f64>(h, &[0, 0], &[1, 4]).unwrap();
//! assert_eq!(row, vec![1.0, 2.0, 3.0, 4.0]);
//! let bounds = client.extend(h, 0, 2).unwrap();
//! assert_eq!(bounds, vec![6, 4]);
//! client.close(h).unwrap();
//! ```

/// Trace hook for the drx-sched schedule explorer; compiles away entirely
/// outside `--cfg drx_sched` test builds. Defined before the modules so its
/// textual scope covers all of them.
macro_rules! sched_probe {
    ($label:literal) => {{
        #[cfg(drx_sched)]
        drx_sched::probe($label);
    }};
}

pub mod cache;
pub mod client;
pub mod error;
pub mod lock;
pub mod proto;
pub mod server;
pub mod tcp;

pub use cache::SharedChunkCache;
pub use client::{Client, Conn, TcpClient, Transport};
pub use error::{ErrorCode, Result, ServerError};
pub use lock::{LockMode, RangeGuard, RangeLockManager};
pub use proto::{ArrayInfo, Request, Response, StatReply};
pub use server::{Server, ServerConfig};
pub use tcp::{serve, serve_with, ServeConfig, ServeHandle};
