//! Two-phase collective I/O is independent I/O, byte for byte: `read_all`
//! and `write_all` through any set of views give exactly what `read_at` and
//! `write_at` give through the same views — over 1–4 ranks, indexed views
//! with holes in their hull, empty participants, random stripe sizes (so
//! aggregator domains align to stripe units or to bytes, and blocks need
//! not divide the stripe), and one or four PFS I/O workers. A failed server
//! fails the collective on every rank with a typed error.

use drx_msg::{run_spmd, Comm, Datatype, MsgError, MsgFile};
use drx_pfs::fault::{Injector, Script};
use drx_pfs::{Pfs, PfsConfig, PfsError, RetryPolicy};
use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn pfs(servers: usize, stripe: u64, workers: usize) -> Pfs {
    Pfs::new(PfsConfig {
        n_servers: servers,
        stripe_size: stripe,
        io_workers: workers,
        ..PfsConfig::default()
    })
    .unwrap()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i * 7 % 251) as u8 ^ salt).collect()
}

/// Rank `rank`'s view: the blocks whose mask has bit `rank` set. `None`
/// when the rank reads nothing (an empty participant).
fn view(masks: &[u8], rank: usize, block: u64) -> Option<Datatype> {
    let displs: Vec<usize> = (0..masks.len()).filter(|&b| masks[b] >> rank & 1 == 1).collect();
    if displs.is_empty() {
        return None;
    }
    Some(Datatype::indexed(&vec![1; displs.len()], &displs, &Datatype::contiguous(block)).unwrap())
}

/// Open `name` with rank `comm.rank()`'s view; returns the file and the
/// view's data size.
fn open_with_view(
    comm: &Comm,
    fs: &Pfs,
    name: &str,
    disp: u64,
    ft: Option<Datatype>,
) -> drx_msg::Result<(MsgFile, usize)> {
    let mut f = MsgFile::open(comm, fs, name, true)?;
    let size = ft.as_ref().map_or(0, |t| t.size() as usize);
    if ft.is_some() {
        f.set_view(disp, ft);
    }
    Ok((f, size))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Collective and independent reads through the same (possibly
    /// overlapping) views return the same bytes, and those are the file's.
    #[test]
    fn read_all_equals_read_at(
        ranks in 1usize..5,
        block in 1u64..100,
        masks in prop::collection::vec(0u8..16, 1..24),
        disp in 0u64..50,
        servers in 1usize..5,
        stripe in 1u64..200,
        four_workers in any::<bool>(),
    ) {
        let fs = pfs(servers, stripe, if four_workers { 4 } else { 1 });
        let len = disp + masks.len() as u64 * block;
        let raw = pattern(len as usize, 0x5A);
        fs.create("f").unwrap().write_at(0, &raw).unwrap();
        run_spmd(ranks, |comm| {
            let ft = view(&masks, comm.rank(), block);
            let ranges = ft.as_ref().map_or_else(Vec::new, |t| t.extents().to_vec());
            let (f, size) = open_with_view(comm, &fs, "f", disp, ft)?;
            let mut coll = vec![0u8; size];
            f.read_all(0, &mut coll)?;
            let mut ind = vec![0u8; size];
            f.read_at(0, &mut ind)?;
            assert_eq!(coll, ind, "rank {}", comm.rank());
            let want: Vec<u8> = ranges
                .iter()
                .flat_map(|&(o, l)| raw[(disp + o) as usize..(disp + o + l) as usize].to_vec())
                .collect();
            assert_eq!(coll, want, "rank {}", comm.rank());
            Ok(())
        })
        .unwrap();
    }

    /// Collective and independent writes through the same disjoint views
    /// leave identical files.
    #[test]
    fn write_all_equals_write_at(
        ranks in 1usize..5,
        block in 1u64..100,
        owners in prop::collection::vec(0u8..5, 1..24),
        disp in 0u64..50,
        servers in 1usize..5,
        stripe in 1u64..200,
        four_workers in any::<bool>(),
    ) {
        // Block b belongs to rank owners[b]; values >= ranks are holes.
        let masks: Vec<u8> = owners.iter().map(|&o| if (o as usize) < ranks { 1 << o } else { 0 }).collect();
        let fs = pfs(servers, stripe, if four_workers { 4 } else { 1 });
        run_spmd(ranks, |comm| {
            let ft = view(&masks, comm.rank(), block);
            let (coll, size) = open_with_view(comm, &fs, "coll", disp, ft.clone())?;
            let (ind, _) = open_with_view(comm, &fs, "ind", disp, ft)?;
            let data = pattern(size, comm.rank() as u8 + 1);
            coll.write_all(0, &data)?;
            ind.write_at(0, &data)?;
            comm.barrier()?;
            Ok(())
        })
        .unwrap();
        let (coll, ind) = (fs.open("coll").unwrap(), fs.open("ind").unwrap());
        prop_assert_eq!(coll.len(), ind.len());
        let n = coll.len() as usize;
        prop_assert_eq!(coll.read_vec(0, n).unwrap(), ind.read_vec(0, n).unwrap());
    }
}

/// Run `f` on 2 ranks and return each rank's outcome; panics instead of
/// hanging if the ranks do not finish.
fn two_ranks<F>(f: F) -> Vec<Result<(), String>>
where
    F: Fn(&Comm) -> drx_msg::Result<()> + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let out = run_spmd(2, |comm| Ok(f(comm).map_err(|e| format!("{e:?}"))));
        let _ = tx.send(out);
    });
    rx.recv_timeout(Duration::from_secs(30)).expect("collective hung").unwrap()
}

fn down_server_pfs(stripe: u64) -> (Pfs, Arc<Injector>) {
    let inj = Arc::new(Injector::new(Script::empty()));
    let fs = Pfs::new(PfsConfig {
        n_servers: 2,
        stripe_size: stripe,
        injector: Some(Arc::clone(&inj)),
        retry: RetryPolicy { base_delay_us: 1, max_delay_us: 10, ..RetryPolicy::default() },
        ..PfsConfig::default()
    })
    .unwrap();
    fs.create("f").unwrap().write_at(0, &pattern(1024, 0)).unwrap();
    (fs, inj)
}

fn interleaved(comm: &Comm, fs: &Pfs) -> drx_msg::Result<MsgFile> {
    let mut f = MsgFile::open(comm, fs, "f", false)?;
    let displs: Vec<usize> = (0..8).map(|i| comm.rank() + 2 * i).collect();
    f.set_view(0, Some(Datatype::indexed(&[1; 8], &displs, &Datatype::contiguous(64))?));
    Ok(f)
}

/// Both aggregators touch the down server: both ranks report it.
#[test]
fn down_server_fails_both_ranks_typed() {
    let (fs, inj) = down_server_pfs(64);
    inj.set_down(1, true);
    let read_fs = fs.clone();
    let outcomes = two_ranks(move |comm| {
        let f = interleaved(comm, &read_fs)?;
        match f.read_all(0, &mut [0u8; 512]) {
            Err(MsgError::Pfs(PfsError::Unavailable { server: 1 })) => Ok(()),
            other => Err(MsgError::Invalid(format!("read_all: {other:?}"))),
        }
    });
    assert_eq!(outcomes, vec![Ok(()), Ok(())]);
    let outcomes = two_ranks(move |comm| {
        let f = interleaved(comm, &fs)?;
        match f.write_all(0, &[1u8; 512]) {
            Err(MsgError::Pfs(PfsError::Unavailable { server: 1 })) => Ok(()),
            other => Err(MsgError::Invalid(format!("write_all: {other:?}"))),
        }
    });
    assert_eq!(outcomes, vec![Ok(()), Ok(())]);
}

/// Only rank 1's domain lives on the down server: rank 1 reports the
/// server, rank 0 reports that rank 1 failed — nobody hangs.
#[test]
fn down_server_in_one_domain_fails_the_peer_too() {
    // Stripe 512 over 2 servers: domain 0 = [0, 512) on server 0, domain
    // 1 = [512, 1024) on server 1.
    let (fs, inj) = down_server_pfs(512);
    inj.set_down(1, true);
    for write in [false, true] {
        let fs = fs.clone();
        let outcomes = two_ranks(move |comm| {
            let f = interleaved(comm, &fs)?;
            let res =
                if write { f.write_all(0, &[1u8; 512]) } else { f.read_all(0, &mut [0u8; 512]) };
            match (comm.rank(), res) {
                (0, Err(MsgError::PeerFailed { rank: 1 })) => Ok(()),
                (1, Err(MsgError::Pfs(PfsError::Unavailable { server: 1 }))) => Ok(()),
                (_, other) => Err(MsgError::Invalid(format!("{other:?}"))),
            }
        });
        assert_eq!(outcomes, vec![Ok(()), Ok(())], "write = {write}");
    }
}
