//! # drx-mp — Parallel access of out-of-core dense extendible arrays
//!
//! A Rust reproduction of the **DRX / DRX-MP** libraries of Otoo & Rotem,
//! *"Parallel Access of Out-Of-Core Dense Extendible Arrays"* (IEEE CLUSTER
//! 2007): disk-resident dense arrays stored as fixed-shape chunks addressed
//! by the extendible mapping function `F*`, extendible along **any**
//! dimension without reorganization, partitioned into zones and accessed by
//! the ranks of an SPMD program with independent or two-phase collective
//! I/O over a striped parallel file system.
//!
//! * [`DrxFile`] — the serial DRX library (one process, `.xmd` + `.xta`
//!   file pair).
//! * [`ArrayStore`] — that file pair and its metadata commit point, shared
//!   by every surface.
//! * [`DrxmpHandle`] — the parallel DRX-MP handle: collective
//!   create/open/close/extend, zone queries, `read_region[_all]`,
//!   `write_region[_all]`, zone reads/writes.
//! * [`DistSpec`] — HPF-style `BLOCK` and `BLOCK_CYCLIC(k)` distributions.
//! * [`GaView`] — Global-Array-style `get`/`put`/`accumulate` on the
//!   distributed array through RMA windows.
//!
//! Paper-API correspondence: `DRXMP_Init` → [`DrxmpHandle::create`],
//! `DRXMP_Open` → [`DrxmpHandle::open`], `DRXMP_Close` →
//! [`DrxmpHandle::close`], `DRXMP_Read` → [`DrxmpHandle::read_region`],
//! `DRXMP_Read_all` → [`DrxmpHandle::read_region_all`] /
//! [`DrxmpHandle::read_my_zone`].

pub mod api;
pub mod error;
pub mod ga;
pub mod handle;
pub mod kernels;
pub mod mpool;
pub mod read;
pub mod serial;
pub mod store;
pub mod write;
pub mod zones;

pub use api::{
    drxmp_close, drxmp_init, drxmp_open, drxmp_read, drxmp_read_all, drxmp_write, drxmp_write_all,
    DrxmpContext, DrxmpStatus, MemHandle,
};
pub use error::{MpError, Result};
pub use ga::GaView;
pub use handle::DrxmpHandle;
pub use kernels::{copy_rows, gather_chunk, kernel_stats, scatter_chunk, KernelStats};
pub use mpool::{CachedDrxFile, ChunkPool, PoolStats, PrefetchOutcome};
pub use read::ChunkPlan;
pub use serial::DrxFile;
pub use store::{ArrayStore, XMD_SUFFIX, XTA_SUFFIX};
pub use zones::DistSpec;
