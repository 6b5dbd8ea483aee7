//! # drx — out-of-core dense extendible arrays with parallel access
//!
//! Facade crate re-exporting the whole DRX / DRX-MP stack (a reproduction of
//! Otoo & Rotem, *"Parallel Access of Out-Of-Core Dense Extendible Arrays"*,
//! IEEE CLUSTER 2007):
//!
//! * [`core`](drx_core) — the axial-vector mapping function `F*` and its
//!   inverse, chunking, metadata (`drx-core`);
//! * [`pfs`](drx_pfs) — a striped parallel file system simulator with a
//!   deterministic cost model (`drx-pfs`);
//! * [`msg`](drx_msg) — an MPI-like SPMD runtime: collectives, derived
//!   datatypes, RMA windows, two-phase collective I/O (`drx-msg`);
//! * [`serial`] / [`parallel`] — the DRX and DRX-MP libraries (`drx-mp`);
//! * [`baselines`] — row-major, HDF5-like (B-tree) and netCDF-like
//!   comparators (`drx-baselines`).
//!
//! ```
//! use drx::serial::DrxFile;
//! use drx::{Layout, Pfs, Region};
//!
//! let pfs = Pfs::memory(4, 1024).unwrap();
//! let mut a: DrxFile<f64> = DrxFile::create(&pfs, "a", &[2, 2], &[4, 4]).unwrap();
//! a.set(&[3, 3], 1.5).unwrap();
//! a.extend(1, 4).unwrap(); // grow a non-primary dimension: append-only
//! assert_eq!(a.get(&[3, 3]).unwrap(), 1.5);
//! let region = Region::new(vec![2, 2], vec![4, 6]).unwrap();
//! let data = a.read_region(&region, Layout::Fortran).unwrap();
//! assert_eq!(data.len(), 8);
//! ```

pub use drx_core::{
    alloc, axial, chunk, dtype, index, mapping, meta, order, ArrayMeta, AxialRecord, AxialVector,
    Chunking, Complex64, DType, DrxError, Element, ExtendOutcome, ExtendibleArray, ExtendibleShape,
    InitialLayout, Layout, Region, SegmentRef, MAX_RANK,
};

pub use drx_pfs::{
    fault, Backing, CostModel, Pfs, PfsConfig, PfsError, PfsFile, PfsStats, RetryPolicy, StripeMap,
};

pub use drx_msg::{run_spmd, Comm, Datatype, MsgError, MsgFile, ReduceOp, Window};

/// The serial DRX library (one process, `.xmd` + `.xta` file pair).
pub mod serial {
    pub use drx_mp::serial::DrxFile;
    pub use drx_mp::store::{ArrayStore, XMD_SUFFIX, XTA_SUFFIX};
}

/// The parallel DRX-MP library (zones, collective I/O, GA-style access).
pub mod parallel {
    pub use drx_mp::error::to_msg;
    pub use drx_mp::{
        api, drxmp_close, drxmp_init, drxmp_open, drxmp_read, drxmp_read_all, drxmp_write,
        drxmp_write_all, CachedDrxFile, ChunkPool, DistSpec, DrxmpContext, DrxmpHandle,
        DrxmpStatus, GaView, MemHandle, MpError, PoolStats, PrefetchOutcome,
    };
}

/// The multi-client array service (sessions, chunk-range locks, shared
/// cache, in-process and TCP transports).
pub mod server {
    pub use drx_server::{
        proto, serve, serve_with, ArrayInfo, Client, Conn, ErrorCode, LockMode, RangeGuard,
        RangeLockManager, Request, Response, ServeConfig, ServeHandle, Server, ServerConfig,
        ServerError, SharedChunkCache, StatReply, TcpClient, Transport,
    };
}

/// Baseline array-file formats used by the evaluation.
pub mod baselines {
    pub use drx_baselines::{
        Btree, BtreeStats, DraLikeFile, ExtendCost, Hdf5LikeFile, NetcdfLikeFile, RowMajorFile,
    };
}
