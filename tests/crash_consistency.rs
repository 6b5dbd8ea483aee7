//! Crash consistency of the `.xmd` + `.xta` pair over the crash-model
//! backing: whatever instant the power fails — including mid-way through a
//! torn write — reopening from the durable image yields a *consistent*
//! array: the metadata decodes, every element inside its bounds is
//! addressable, and everything synced before the crash reads back exactly.

use drx::fault::{CrashRegistry, Event, FaultKind, Injector, Op, Script};
use drx::parallel::{to_msg, DistSpec, DrxmpHandle, MpError};
use drx::serial::{ArrayStore, DrxFile};
use drx::{run_spmd, Backing, Pfs, PfsConfig, PfsError};
use std::sync::Arc;

const SERVERS: usize = 2;
const STRIPE: u64 = 256;

fn crash_pfs(reg: &Arc<CrashRegistry>, inj: Option<Arc<Injector>>) -> Pfs {
    Pfs::new(PfsConfig {
        n_servers: SERVERS,
        stripe_size: STRIPE,
        backing: Backing::Crash(Arc::clone(reg)),
        injector: inj,
        ..PfsConfig::default()
    })
    .expect("pfs construction")
}

fn expected(i: usize, j: usize) -> f64 {
    (i * 10 + j) as f64
}

/// Checkpoint workload: create `a`, write every element, make both files
/// durable. Returns the injector op count at the durable point.
fn checkpoint(pfs: &Pfs, inj: &Injector) -> Result<u64, MpError> {
    let mut f: DrxFile<f64> = DrxFile::create(pfs, "a", &[2, 2], &[4, 4])?;
    f.fill_with(|idx| expected(idx[0], idx[1]))?;
    f.sync_meta()?;
    f.payload_file().sync()?;
    Ok(inj.ops())
}

/// Reopen the pair from whatever survived the crash: `adopt` rebuilds the
/// logical lengths from the durable server-local streams and re-sizes the
/// payload to what the (richer) decoded metadata records.
fn reopen(reg: &Arc<CrashRegistry>) -> Result<DrxFile<f64>, MpError> {
    DrxFile::from_store(ArrayStore::adopt(&crash_pfs(reg, None), "a")?)
}

fn assert_checkpoint_intact(f: &DrxFile<f64>) {
    for i in 0..4 {
        for j in 0..4 {
            assert_eq!(
                f.get(&[i, j]).expect("checkpointed element addressable"),
                expected(i, j),
                "durable data corrupted at ({i},{j})"
            );
        }
    }
}

/// The tentpole scenario: a torn write *after* the checkpoint, then power
/// loss. The reopened pair must agree — whatever bounds the durable `.xmd`
/// records, every element inside them is addressable, and the checkpoint
/// reads back exactly.
#[test]
fn torn_write_then_crash_reopens_consistent() {
    // Measure the durable point on a fault-free run (throwaway registry).
    let inert = Arc::new(Injector::inert());
    let mark = checkpoint(&crash_pfs(&CrashRegistry::new(), Some(Arc::clone(&inert))), &inert)
        .expect("fault-free checkpoint");

    // Real run: arm a torn write at the first write after the checkpoint.
    let reg = CrashRegistry::new();
    let script = Script {
        seed: 0,
        events: vec![Event {
            at_op: mark,
            domain: None,
            op: Some(Op::Write),
            kind: FaultKind::TornWrite,
        }],
    };
    let inj = Arc::new(Injector::new(script));
    let pfs = crash_pfs(&reg, Some(Arc::clone(&inj)));
    checkpoint(&pfs, &inj).expect("checkpoint is before the armed fault");
    // Post-checkpoint mutation: the extend's metadata rewrite (or the
    // payload write into the new region) is torn mid-flight.
    let post = (|| -> Result<(), MpError> {
        let mut f: DrxFile<f64> = DrxFile::open(&pfs, "a")?;
        f.extend(1, 2)?;
        f.set(&[3, 5], 99.0)?;
        f.sync_meta()?;
        f.payload_file().sync()?;
        Ok(())
    })();
    match post {
        Err(MpError::Pfs(PfsError::Torn { .. })) => {}
        other => panic!("expected the armed torn write to surface, got {other:?}"),
    }
    assert_eq!(inj.fired().len(), 1);

    reg.crash_all();

    let f = reopen(&reg).expect("reopen after torn write + crash");
    let bounds = f.bounds().to_vec();
    assert!(
        bounds == [4, 4] || bounds == [4, 6],
        "recovered bounds must be a committed state, got {bounds:?}"
    );
    assert_checkpoint_intact(&f);
    // Every element the recovered metadata claims must be addressable —
    // unwritten extended chunks read as holes (0.0), never as errors.
    for i in 0..bounds[0] {
        for j in 0..bounds[1] {
            f.get(&[i, j]).expect("element inside recovered bounds must be addressable");
        }
    }
}

/// Plain crash semantics end-to-end: synced state survives, unsynced
/// mutations vanish — never a half-applied mix *within one synced write*.
#[test]
fn unsynced_writes_lost_synced_state_survives() {
    let reg = CrashRegistry::new();
    let inert = Arc::new(Injector::inert());
    let pfs = crash_pfs(&reg, Some(Arc::clone(&inert)));
    checkpoint(&pfs, &inert).expect("checkpoint");
    let mut f: DrxFile<f64> = DrxFile::open(&pfs, "a").expect("open");
    f.set(&[0, 0], 4242.0).expect("unsynced overwrite");
    reg.crash_all();

    let f = reopen(&reg).expect("reopen");
    assert_eq!(f.bounds(), &[4, 4]);
    assert_checkpoint_intact(&f); // [0,0] is back to its checkpointed value
}

/// The extend-commit durability barrier at work: `extend` fsyncs the
/// `.xmd` *before* any payload lands in the new region, so a crash after
/// extend + payload sync leaves the extended bounds addressable — payload
/// bytes can never outlive the metadata that addresses them.
#[test]
fn extend_commit_survives_crash_with_addressable_region() {
    let reg = CrashRegistry::new();
    let inert = Arc::new(Injector::inert());
    let pfs = crash_pfs(&reg, Some(Arc::clone(&inert)));
    checkpoint(&pfs, &inert).expect("checkpoint");
    let mut f: DrxFile<f64> = DrxFile::open(&pfs, "a").expect("open");
    // extend() itself is the commit point for the metadata (it fsyncs);
    // only the payload needs an explicit sync here.
    f.extend(1, 2).expect("extend");
    f.set(&[3, 5], 99.0).expect("write into extended region");
    f.payload_file().sync().expect("payload sync");
    reg.crash_all();

    let f = reopen(&reg).expect("reopen");
    assert_eq!(f.bounds(), &[4, 6], "committed extend must survive the crash");
    assert_checkpoint_intact(&f);
    assert_eq!(f.get(&[3, 5]).expect("extended element"), 99.0);
}

/// Create and extend are commit points on every surface: a crash right
/// after them reopens at the committed bounds, with no sync by the caller.
/// A 2-rank `DrxmpHandle` commits from rank 0; a fresh `DrxFile` commits
/// at create.
#[test]
fn create_and_extend_commits_survive_crash_on_every_surface() {
    let reg = CrashRegistry::new();
    let pfs = crash_pfs(&reg, None);
    run_spmd(2, |comm| {
        let mut h: DrxmpHandle<f64> =
            DrxmpHandle::create(comm, &pfs, "a", &[2, 2], &[4, 4], DistSpec::block(vec![2, 1]))
                .map_err(to_msg)?;
        h.extend(1, 2).map_err(to_msg)?;
        h.close().map_err(to_msg)
    })
    .expect("parallel create + extend");
    reg.crash_all();
    let f = reopen(&reg).expect("reopen after parallel extend + crash");
    assert_eq!(f.bounds(), &[4, 6], "committed parallel extend must survive the crash");

    let reg = CrashRegistry::new();
    DrxFile::<f64>::create(&crash_pfs(&reg, None), "a", &[2, 2], &[3, 5]).expect("create");
    reg.crash_all();
    let f = reopen(&reg).expect("reopen after create + crash");
    assert_eq!(f.bounds(), &[3, 5], "committed create must survive the crash");
    assert_eq!(f.get(&[2, 4]).expect("created element addressable"), 0.0);
}
