//! Repo-specific analysis scopes. `drx-analyze` is a workspace tool, not a
//! general linter: the file sets and method allowlist below encode what the
//! DRX workspace cares about (see DESIGN.md §9).

use std::path::{Path, PathBuf};

/// Files whose lock acquisitions participate in the L1 lock-order check —
/// the hand-built concurrency layer of the server, pool and PFS.
pub const L1_FILES: &[&str] = &[
    "crates/drx-server/src/lock.rs",
    "crates/drx-server/src/cache.rs",
    "crates/drx-server/src/server.rs",
    "crates/drx-mp/src/mpool.rs",
    "crates/drx-pfs/src/file.rs",
    "crates/drx-pfs/src/server.rs",
    "crates/drx-pfs/src/backend.rs",
    "crates/drx-pfs/src/par.rs",
];

/// Method / function names that participate in L1 call-summary
/// propagation. Calls to any *other* name are treated as opaque: this
/// keeps ubiquitous std names (`len`, `get`, `extend`, `insert`, …) from
/// aliasing into the lock layer and fabricating edges. The list only
/// needs the names that move work between the files in [`L1_FILES`].
pub const L1_CALL_METHODS: &[&str] = &[
    // drx-server cache / lock / session layer. `stats` and `chunk_bytes`
    // are deliberately absent: both names are also pure accessors on
    // `ChunkPool` / `ArrayMeta`, and including them fabricates edges.
    "acquire",
    "wait_count",
    "locked_chunks",
    "read_frames",
    "write_frames",
    "read_chunks",
    "put_chunk",
    "flush",
    "session_stats",
    "global_stats",
    "drop_session",
    "coalesced_batches",
    "batched_chunks",
    "session_count",
    "release",
    // drx-mp pool
    "prefetch",
    "put",
    "fault_in",
    "frame",
    "frame_mut",
    "make_room",
    "evict",
    "clear",
    // drx-pfs file / server layer
    "read_vec",
    "read_at",
    "write_at",
    "set_len",
    "read",
    "write",
    "open",
    "with_entry",
    "ensure_file",
    "remove_file",
];

/// Crates whose non-test sources are scanned by L2 (panic-path), tracked
/// against the checked-in baseline.
pub const L2_CRATES: &[&str] = &["crates/drx-server", "crates/drx-pfs", "crates/drx-msg"];

/// The protocol module for L3, and the test sources that must exercise
/// every variant.
pub const L3_PROTO: &str = "crates/drx-server/src/proto.rs";
pub const L3_TEST_DIRS: &[&str] = &["crates/drx-server/tests"];

/// Directories scanned by L4 (unsafe inventory) and L5 (discarded
/// Results): all first-party library code. `support/` shims are vendored
/// stand-ins and stay out of scope.
pub const L4_L5_DIRS: &[&str] = &[
    "crates/drx-core/src",
    "crates/drx-pfs/src",
    "crates/drx-msg/src",
    "crates/drx-mp/src",
    "crates/drx-server/src",
    "crates/drx-baselines/src",
    "src",
];

/// Default baseline location, relative to the workspace root.
pub const L2_BASELINE: &str = "crates/drx-analyze/baseline/panic_sites.txt";

/// Resolve the workspace root: an explicit `--root`, or walk up from the
/// current directory to the first directory containing `Cargo.toml` with a
/// `[workspace]` table.
pub fn find_root(explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(p) = explicit {
        return Some(p.to_path_buf());
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
