//! Failure injection and corruption handling across the full stack: PFS
//! server faults must surface as typed errors (not panics or silent
//! corruption), and damaged metadata must be rejected at open.

use drx::fault::Injector;
use drx::parallel::{to_msg, DistSpec, DrxmpHandle, MpError};
use drx::serial::DrxFile;
use drx::server::{Client, ErrorCode, Server, ServerConfig, ServerError};
use drx::{run_spmd, Layout, Pfs, PfsConfig, PfsError, Region};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn seeded(pfs: &Pfs) {
    let mut f: DrxFile<i64> = DrxFile::create(pfs, "arr", &[2, 2], &[8, 8]).unwrap();
    f.fill_with(|i| (i[0] * 8 + i[1]) as i64).unwrap();
}

/// A 2-server, 64-byte-stripe file system whose stripe servers the
/// returned injector can take down and bring back (`set_down`).
fn faulty_pfs() -> (Pfs, Arc<Injector>) {
    let inj = Arc::new(Injector::inert());
    let config = PfsConfig {
        n_servers: 2,
        stripe_size: 64,
        injector: Some(Arc::clone(&inj)),
        ..PfsConfig::default()
    };
    (Pfs::new(config).unwrap(), inj)
}

#[test]
fn injected_server_fault_surfaces_through_serial_reads() {
    let (pfs, inj) = faulty_pfs();
    seeded(&pfs);
    let f: DrxFile<i64> = DrxFile::open(&pfs, "arr").unwrap();
    // Take server 0 down: the read fails with a typed error.
    inj.set_down(0, true);
    let region = Region::new(vec![0, 0], vec![8, 8]).unwrap();
    let err = f.read_region(&region, Layout::C).unwrap_err();
    assert!(matches!(err, MpError::Pfs(PfsError::Unavailable { server: 0 })), "got: {err}");
    // A server opening the array meanwhile reports the outage, not a
    // missing or corrupt array.
    let err = server_open(&pfs, "arr").expect_err("server open with a down stripe server");
    assert_eq!(err.code, ErrorCode::Unavailable, "got: {err}");
    // Once the server is back, the same read succeeds and is correct.
    inj.set_down(0, false);
    let data = f.read_region(&region, Layout::C).unwrap();
    assert_eq!(data[63], 63);
}

#[test]
fn injected_fault_poisons_a_parallel_collective_cleanly() {
    let (pfs, inj) = faulty_pfs();
    seeded(&pfs);
    // Ranks that got past `open` and into the collective, and ranks that
    // came back from it with the expected error.
    let (reached, failed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let collective = |fault: bool, write: bool| {
        let (fs, inj, reached, failed) = (pfs.clone(), &inj, &reached, &failed);
        run_spmd(2, move |comm| {
            // Open with every server up, so the fault fires inside the
            // two-phase collective, not in the metadata read.
            let mut h: DrxmpHandle<i64> =
                DrxmpHandle::open(comm, &fs, "arr", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
            let zone = h.my_zone().expect("both ranks own a zone");
            let data = vec![-(comm.rank() as i64) - 1; zone.volume() as usize];
            comm.barrier()?;
            if fault && comm.rank() == 0 {
                inj.set_down(1, true);
            }
            comm.barrier()?;
            reached.fetch_add(1, Ordering::SeqCst);
            // Some rank's aggregated request will hit the down server; both
            // ranks must come back with an error (the fault, the peer's
            // failure or the poison), never a deadlock or a panic.
            let res = if write {
                h.write_my_zone(Layout::C, Some(&data)).map(|()| true)
            } else {
                h.read_my_zone(Layout::C).map(|_| true)
            };
            res.map_err(|e| {
                let s = e.to_string();
                assert!(
                    s.contains("unavailable")
                        || s.contains("collective failed")
                        || s.contains("poisoned"),
                    "unexpected error: {s}"
                );
                failed.fetch_add(1, Ordering::SeqCst);
                to_msg(e)
            })
        })
    };
    for write in [false, true] {
        // The run as a whole reports the failure, both ranks reached the
        // collective before it failed, and both returned the error.
        assert!(collective(true, write).is_err(), "fault must propagate out of run_spmd");
        assert_eq!(reached.swap(0, Ordering::SeqCst), 2, "the fault must fire in the collective");
        assert_eq!(failed.swap(0, Ordering::SeqCst), 2, "every rank must return the error");
        // Once the server is back, the same collective succeeds.
        inj.set_down(1, false);
        assert!(collective(false, write).is_ok());
        assert_eq!(reached.swap(0, Ordering::SeqCst), 2);
    }
    // The write that succeeded landed every zone.
    let f: DrxFile<i64> = DrxFile::open(&pfs, "arr").unwrap();
    assert_eq!(f.get(&[0, 0]).unwrap(), -1);
    assert_eq!(f.get(&[7, 7]).unwrap(), -2);
}

#[test]
fn corrupt_metadata_is_rejected_on_open() {
    let pfs = Pfs::memory(2, 64).unwrap();
    seeded(&pfs);
    // Flip a byte in the middle of the .xmd body: CRC must catch it.
    let xmd = pfs.open("arr.xmd").unwrap();
    let mut bytes = xmd.read_vec(0, xmd.len() as usize).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    xmd.write_at(0, &bytes).unwrap();
    let err = match DrxFile::<i64>::open(&pfs, "arr") {
        Err(e) => e,
        Ok(_) => panic!("open must fail on corrupt metadata"),
    };
    assert!(err.to_string().contains("corrupt metadata"), "got: {err}");
    // Parallel open fails on every rank too (replica decode).
    let fs = pfs.clone();
    let res = run_spmd(2, move |comm| {
        match DrxmpHandle::<i64>::open(comm, &fs, "arr", DistSpec::block(vec![2, 1])) {
            Err(e) => {
                assert!(e.to_string().contains("corrupt"), "got: {e}");
                Ok(())
            }
            Ok(_) => panic!("open must fail on corrupt metadata"),
        }
    });
    assert!(res.is_ok());
    // The server reports a stored `.xmd` that does not decode as a storage
    // fault.
    let err = server_open(&pfs, "arr").expect_err("server open must fail on corrupt metadata");
    assert_eq!(err.code, ErrorCode::Internal, "got: {err}");
}

/// Open `name` through an in-process server session.
fn server_open(pfs: &Pfs, name: &str) -> Result<(), ServerError> {
    let server = Server::new(pfs.clone(), ServerConfig::default());
    Client::connect(&server).open(name).map(|_| ())
}

#[test]
fn truncated_metadata_is_rejected() {
    let pfs = Pfs::memory(2, 64).unwrap();
    seeded(&pfs);
    let xmd = pfs.open("arr.xmd").unwrap();
    xmd.set_len(xmd.len() / 2).unwrap();
    assert!(DrxFile::<i64>::open(&pfs, "arr").is_err());
}

#[test]
fn wrong_dtype_is_rejected_everywhere() {
    let pfs = Pfs::memory(2, 64).unwrap();
    seeded(&pfs); // i64 array
    assert!(DrxFile::<f32>::open(&pfs, "arr").is_err());
    let fs = pfs.clone();
    run_spmd(2, move |comm| {
        assert!(DrxmpHandle::<f64>::open(comm, &fs, "arr", DistSpec::block(vec![2, 1])).is_err());
        Ok(())
    })
    .unwrap();
}

#[test]
fn rank_panic_inside_parallel_io_does_not_deadlock() {
    let pfs = Pfs::memory(2, 64).unwrap();
    seeded(&pfs);
    let fs = pfs.clone();
    let err = run_spmd(2, move |comm| -> drx_msg::Result<()> {
        let mut h: DrxmpHandle<i64> =
            DrxmpHandle::open(comm, &fs, "arr", DistSpec::block(vec![2, 1])).map_err(to_msg)?;
        if comm.rank() == 1 {
            panic!("simulated application bug");
        }
        // Rank 0 blocks in a collective; the poison must wake it with an
        // error instead of hanging the test forever.
        match h.read_my_zone(Layout::C) {
            Err(e) => {
                assert!(e.to_string().contains("poisoned"));
                Err(to_msg(e))
            }
            Ok(_) => Ok(()),
        }
    })
    .unwrap_err();
    assert!(err.to_string().contains("panicked"));
}

#[test]
fn missing_files_error_cleanly() {
    let pfs = Pfs::memory(2, 64).unwrap();
    assert!(DrxFile::<i64>::open(&pfs, "nope").is_err());
    let err = server_open(&pfs, "nope").expect_err("server open of a missing array must fail");
    assert_eq!(err.code, ErrorCode::NoSuchArray, "got: {err}");
    // In the parallel open, a rank that fails to open the pair returns
    // early; the abort discipline (returning Err poisons the world) must
    // release any other rank from the pending collective instead of
    // deadlocking — exactly what an MPI program would need MPI_Abort for.
    let fs = pfs.clone();
    let res = run_spmd(2, move |comm| -> drx_msg::Result<()> {
        match DrxmpHandle::<i64>::open(comm, &fs, "nope", DistSpec::block(vec![2, 1])) {
            Err(e) => Err(to_msg(e)), // propagate so the runtime aborts the world
            Ok(_) => panic!("open of a missing file must fail"),
        }
    });
    assert!(res.is_err());
}
