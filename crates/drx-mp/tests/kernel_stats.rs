//! Kernel calls add their work to the process-wide `kernel_stats()`
//! counters. Which kernel serves which call is checked exactly by the
//! kernels module's unit tests, on a per-thread mirror of these counters.
//!
//! The counters are global, so exact deltas only hold while no other test
//! runs a kernel. That is why the check lives in this one `#[test]`, in a
//! test binary of its own.

use drx_core::{Layout, Region};
use drx_mp::{kernel_stats, scatter_chunk};

#[test]
fn kernel_calls_update_the_global_counters() {
    let region = Region::new(vec![0, 0], vec![40, 40]).unwrap();
    let chunk_strides = Layout::C.strides(&[40, 40]);
    let vals: Vec<i64> = (0..1600).collect();
    let bytes = drx_core::dtype::encode_slice(&vals);
    let mut out = vec![0i64; 1600];

    // A same-order copy is one memcpy call over all 40 rows.
    let before = kernel_stats();
    scatter_chunk(&bytes, &[0, 0], &chunk_strides, &mut out, &[0, 0], &chunk_strides, &region);
    let d = kernel_stats().delta_since(&before);
    assert_eq!((d.memcpy_calls, d.memcpy_bytes, d.tiled_elems), (1, 1600 * 8, 0), "{d:?}");
    assert_eq!(out, vals);

    // A transpose moves every element through the tiled kernel.
    let before = kernel_stats();
    let out_strides = Layout::Fortran.strides(&[40, 40]);
    scatter_chunk(&bytes, &[0, 0], &chunk_strides, &mut out, &[0, 0], &out_strides, &region);
    let d = kernel_stats().delta_since(&before);
    assert_eq!((d.memcpy_calls, d.tiled_elems), (0, 1600), "{d:?}");
}
