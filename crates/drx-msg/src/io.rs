//! Parallel file I/O with file views — the MPI-IO counterpart
//! (`MPI_File_open`, `MPI_File_set_view`, `MPI_File_read`/`_read_all`, …).
//!
//! Independent reads/writes translate buffer positions through the rank's
//! file view (a [`Datatype`] tiled from a displacement) and issue one PFS
//! call per absolute extent. Collective `read_all`/`write_all` implement
//! genuine **two-phase I/O**: the aggregate byte range of all ranks is
//! partitioned into per-aggregator domains, each aggregator services every
//! requested piece of its domain with one gather/scatter PFS call — the
//! pieces of all ranks, in file order, so each server sees one request per
//! contiguous local run — and data is redistributed with one all-to-all.
//! That is the request-coalescing behaviour experiment E4 measures against
//! independent I/O. Every rank derives every piece's position from the
//! allgathered view extents, so the exchanged messages carry data only.
//!
//! The engines, [`MsgFile::read_all_with`] and [`MsgFile::write_all_with`],
//! meet the caller through a callback at each piece's view position: a
//! read hands every piece to a sink where it lies — an aggregator's own
//! share after its read, every other share in the received message — and a
//! write pulls every piece from a source into the send buffers. A caller
//! that keeps its data in another layout (`drx-mp`'s chunk scatter and
//! gather kernels) therefore builds no packed copy of its request: the
//! largest transient buffer is one aggregator domain. Domains align to a
//! granule the caller names, so a sink never sees a split record, and,
//! where that does not cost the domains their balance, to the file's
//! stripe unit, so two aggregators never queue requests for one stripe
//! unit on its server (ROMIO's stripe-aligned file domains).
//!
//! The exchange buffers are recycled. The engines take each per-peer
//! buffer from a free list the communicator group shares
//! (`Comm::take_buffer`) and hand back every buffer they are done with
//! (`Comm::recycle_buffer`): a read its own share once sunk and each
//! received message once sunk, a write each received message once
//! written. Messages move between ranks by ownership, so the group's next
//! collective finds them again, and a steady run of same-shaped
//! collectives allocates no exchange buffer.

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::error::{MsgError, Result};
use drx_pfs::{Pfs, PfsFile};

/// A parallel file handle bound to a communicator.
pub struct MsgFile {
    comm: Comm,
    file: PfsFile,
    disp: u64,
    /// `None` = identity view (byte offsets pass through).
    view: Option<Datatype>,
}

impl MsgFile {
    /// Collective open. With `create`, rank 0 creates the file if missing;
    /// the call errors on every rank if the file is absent and `create` is
    /// false.
    pub fn open(comm: &Comm, pfs: &Pfs, name: &str, create: bool) -> Result<MsgFile> {
        if comm.rank() == 0 && create {
            let _ = pfs.open_or_create(name)?;
        }
        comm.barrier()?;
        Ok(MsgFile::new(comm, pfs.open(name)?))
    }

    /// Bind an already open file to `comm` (non-collective), with the
    /// identity view.
    pub fn new(comm: &Comm, file: PfsFile) -> MsgFile {
        MsgFile { comm: comm.clone(), file, disp: 0, view: None }
    }

    /// Set this rank's file view (`MPI_File_set_view`): logical data bytes
    /// map into the file through `filetype` tiled from byte displacement
    /// `disp`. Pass `None` to restore the identity view.
    pub fn set_view(&mut self, disp: u64, filetype: Option<Datatype>) {
        self.disp = disp;
        self.view = filetype;
    }

    /// The communicator this file was opened on.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The underlying striped file, for I/O at absolute offsets that
    /// bypasses the view.
    pub fn file(&self) -> &PfsFile {
        &self.file
    }

    /// Logical file size in bytes.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absolute `(offset, len)` file extents for a logical `[data_offset,
    /// data_offset + len)` range through this rank's view.
    fn absolute(&self, data_offset: u64, len: u64) -> Vec<(u64, u64)> {
        match &self.view {
            None => {
                if len == 0 {
                    Vec::new()
                } else {
                    vec![(self.disp + data_offset, len)]
                }
            }
            Some(ft) => ft
                .absolute_ranges(data_offset, len)
                .into_iter()
                .map(|(o, l)| (o + self.disp, l))
                .collect(),
        }
    }

    /// Independent read of `buf.len()` view bytes starting at logical view
    /// offset `data_offset`.
    pub fn read_at(&self, data_offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut pos = 0usize;
        for (off, len) in self.absolute(data_offset, buf.len() as u64) {
            self.file.read_at(off, &mut buf[pos..pos + len as usize])?;
            pos += len as usize;
        }
        debug_assert_eq!(pos, buf.len());
        Ok(())
    }

    /// Independent write through the view.
    pub fn write_at(&self, data_offset: u64, data: &[u8]) -> Result<()> {
        let mut pos = 0usize;
        for (off, len) in self.absolute(data_offset, data.len() as u64) {
            self.file.write_at(off, &data[pos..pos + len as usize])?;
            pos += len as usize;
        }
        debug_assert_eq!(pos, data.len());
        Ok(())
    }

    /// Collective two-phase read (`MPI_File_read_all`) into `buf`. Every
    /// rank must participate; ranks may request disjoint (even empty) view
    /// ranges. A byte-buffer front end of [`MsgFile::read_all_with`].
    pub fn read_all(&self, data_offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_all_with(data_offset, buf.len() as u64, 1, |pos, piece: &[u8]| {
            buf[pos..pos + piece.len()].copy_from_slice(piece);
            Ok(())
        })
    }

    /// The two-phase read engine: read `len` view bytes from logical view
    /// offset `data_offset` and hand each piece to `sink(position, bytes)`,
    /// where `position` is the piece's offset within those `len` bytes.
    ///
    /// Each aggregator reads the requested pieces inside its domain with
    /// one gather call in file order, every rank's pieces (its own
    /// included) packed into one buffer per rank. It sinks its own share
    /// and recycles it, one all-to-all ships the other buffers, and each
    /// received message is sunk piece by piece as it stands, then
    /// recycled: the sink's copy is the only one between the file system
    /// and the caller.
    ///
    /// Aggregator domains start at multiples of `granule` bytes, so a
    /// piece never splits a granule-aligned record (a chunk image, say),
    /// and, unless that would unbalance them, of the stripe size, so no
    /// server request is split between two aggregators. Every rank must
    /// pass the same `granule`.
    pub fn read_all_with<E: From<MsgError>>(
        &self,
        data_offset: u64,
        len: u64,
        granule: u64,
        mut sink: impl FnMut(usize, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let ranges = self.absolute(data_offset, len);
        let Some(tp) = self.exchange_ranges(&ranges, granule)? else {
            return Ok(()); // nobody asked for anything
        };
        let me = self.comm.rank();
        let dom = tp.domain(me);
        // Phase 1: read my domain into one buffer per requesting rank. The
        // buffers may be recycled ones holding an earlier call's bytes; the
        // pieces carved from each cover every byte, and `read_pieces`
        // overwrites them all before a byte is sunk or sent.
        let mut to_each: Vec<Vec<u8>> = tp
            .ranges
            .iter()
            .map(|rr| self.comm.take_buffer(pieces_in(rr, dom).map(|(_, _, l)| l).sum()))
            .collect();
        let mut pieces: Vec<(u64, &mut [u8])> = Vec::new();
        for (rr, out) in tp.ranges.iter().zip(to_each.iter_mut()) {
            let mut cursor = 0;
            let packed = pieces_in(rr, dom).map(|(abs, _, len)| {
                cursor += len;
                (abs, cursor - len, len)
            });
            carve(out, packed, &mut pieces);
        }
        pieces.sort_by_key(|&(abs, _)| abs);
        let io = self.file.read_pieces(pieces).map_err(MsgError::from);
        // Sink my own share before the messages arrive, and hand it back.
        let own = std::mem::take(&mut to_each[me]);
        let landed = match io {
            Ok(()) => split_message(&ranges, dom, &own, me, |_, pos, piece| sink(pos, piece)),
            Err(_) => Ok(()),
        };
        self.comm.recycle_buffer(own);
        // Phase 2: ship the buffers — or, after a failed read, a failure
        // mark, so no peer waits for data that never comes — and sink what
        // every other aggregator read for me.
        let received = self.comm.alltoallv_unless_failed(io.is_ok().then_some(to_each))?;
        io?;
        landed?;
        let received = received.map_err(|rank| MsgError::PeerFailed { rank })?;
        for (agg, msg) in received.into_iter().enumerate().filter(|&(agg, _)| agg != me) {
            split_message(&ranges, tp.domain(agg), &msg, agg, |_, pos, piece| sink(pos, piece))?;
            self.comm.recycle_buffer(msg);
        }
        Ok(())
    }

    /// Collective two-phase write (`MPI_File_write_all`) of `data`. A
    /// byte-buffer front end of [`MsgFile::write_all_with`].
    pub fn write_all(&self, data_offset: u64, data: &[u8]) -> Result<()> {
        self.write_all_with(data_offset, data.len() as u64, 1, |pos, out: &mut [u8]| {
            out.copy_from_slice(&data[pos..pos + out.len()]);
            Ok(())
        })
    }

    /// The two-phase write engine: write `len` view bytes at logical view
    /// offset `data_offset`, pulling each piece from `source(position,
    /// out)`, which fills `out` with the view bytes at `position` within
    /// those `len` bytes.
    ///
    /// Each rank pulls its pieces inside every aggregator's domain, its
    /// own domain included, into one send buffer per aggregator. After one
    /// all-to-all (which hands a rank its own buffer back without a copy)
    /// the aggregator writes its domain with one gather call in file
    /// order, straight from the received messages, and recycles them.
    /// Domains align to `granule` as in [`MsgFile::read_all_with`].
    pub fn write_all_with<E: From<MsgError>>(
        &self,
        data_offset: u64,
        len: u64,
        granule: u64,
        mut source: impl FnMut(usize, &mut [u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let ranges = self.absolute(data_offset, len);
        let Some(tp) = self.exchange_ranges(&ranges, granule)? else {
            return Ok(());
        };
        let me = self.comm.rank();
        // Phase 1: pull my data pieces for every aggregator. A recycled
        // send buffer keeps an earlier call's bytes, but the pieces cover
        // all of it and `source` fills each one; a buffer a failed source
        // left part-filled is dropped, never sent.
        let mut pulled = Ok(());
        let to_each: Vec<Vec<u8>> = (0..self.comm.size())
            .map(|agg| {
                let dom = tp.domain(agg);
                let mut out =
                    self.comm.take_buffer(pieces_in(&ranges, dom).map(|(_, _, l)| l).sum());
                let mut cursor = 0;
                for (_, pos, len) in pieces_in(&ranges, dom) {
                    if pulled.is_ok() {
                        pulled = source(pos, &mut out[cursor..cursor + len]);
                    }
                    cursor += len;
                }
                out
            })
            .collect();
        // A rank whose source failed sends a failure mark: nobody writes.
        let received = self.comm.alltoallv_unless_failed(pulled.is_ok().then_some(to_each))?;
        pulled?;
        let received = received.map_err(|rank| MsgError::PeerFailed { rank })?;
        // Phase 2: write my domain.
        let dom = tp.domain(me);
        let mut pieces: Vec<(u64, &[u8])> = Vec::new();
        let io = received.iter().enumerate().try_for_each(|(r, msg)| {
            split_message(&tp.ranges[r], dom, msg, r, |abs, _, piece| {
                pieces.push((abs, piece));
                Ok(())
            })
        });
        // Where ranks' pieces overlap, which lands last is unspecified (as
        // in MPI).
        pieces.sort_by_key(|&(abs, _)| abs);
        let io = io.and_then(|()| self.file.write_pieces(pieces).map_err(MsgError::from));
        for msg in received {
            self.comm.recycle_buffer(msg);
        }
        // Settle the outcome on every rank, so a failure here fails the
        // call everywhere; also the barrier that makes the writes visible.
        let failed = self.comm.allgather_vec::<u64>(&[u64::from(io.is_err())])?;
        io?;
        match failed.iter().position(|f| f.first() != Some(&0)) {
            Some(rank) => Err(MsgError::PeerFailed { rank }.into()),
            None => Ok(()),
        }
    }

    /// Allgather everyone's absolute ranges and derive the aggregator
    /// domains, aligned to `granule` and, where [`domain_grid`] finds it
    /// cheap, the stripe unit. A domain then holds whole records for the
    /// sink, and no stripe unit — so no server request — is split between
    /// two aggregators. `None` when all ranks requested nothing. Ranks
    /// that disagree on `granule` fail alike.
    fn exchange_ranges(&self, mine: &[(u64, u64)], granule: u64) -> Result<Option<TwoPhase>> {
        let flat: Vec<u64> =
            std::iter::once(granule).chain(mine.iter().flat_map(|&(o, l)| [o, l])).collect();
        let all = self.comm.allgather_vec::<u64>(&flat)?;
        if all.iter().any(|v| v.first() != Some(&granule)) {
            return Err(MsgError::CollectiveMismatch(
                "ranks disagree on the two-phase granule".into(),
            ));
        }
        let ranges: Vec<Vec<(u64, u64)>> = all
            .into_iter()
            .map(|v| v[1..].chunks_exact(2).map(|c| (c[0], c[1])).collect())
            .collect();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for &(o, l) in ranges.iter().flatten() {
            if l > 0 {
                lo = lo.min(o);
                hi = hi.max(o.saturating_add(l));
            }
        }
        if lo >= hi {
            return Ok(None);
        }
        let (lo, per) = domain_grid(lo, hi, self.comm.size(), granule, self.file.stripe_size());
        Ok(Some(TwoPhase { lo, hi, per, ranges }))
    }
}

/// The start and size of `ranks` aggregator domains over the hull
/// `lo..hi`, both multiples of `lcm(granule, stripe)` when that costs a
/// domain at most one stripe unit or one even share of the hull more than
/// granule alignment does, else of `granule` alone. A 100×100 `f64` chunk
/// image (80 000 B) on a 64 KiB stripe has an lcm of about 40 MiB, which
/// would hand any smaller collective wholly to one aggregator; such a
/// collective keeps record-aligned domains and may split a stripe unit.
fn domain_grid(lo: u64, hi: u64, ranks: usize, granule: u64, stripe: u64) -> (u64, u64) {
    let split = |align: u64| {
        let lo = lo - lo % align;
        (lo, (hi - lo).div_ceil(ranks as u64).div_ceil(align).saturating_mul(align))
    };
    let granule = granule.max(1);
    let both = lcm(granule, stripe.max(1));
    let (glo, share) = split(granule);
    if both <= stripe.max(share) {
        split(both)
    } else {
        (glo, share)
    }
}

/// Least common multiple of two positive numbers, saturating at
/// `u64::MAX` (one domain then spans the whole hull).
fn lcm(a: u64, b: u64) -> u64 {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    (a / x).saturating_mul(b)
}

/// Everyone's view extents and the aggregator domains they imply. Every
/// rank derives the same pieces from it, so messages carry data only.
struct TwoPhase {
    lo: u64,
    hi: u64,
    per: u64,
    /// Absolute view extents by rank, in each rank's buffer order.
    ranges: Vec<Vec<(u64, u64)>>,
}

impl TwoPhase {
    /// Aggregator domain `agg`: `[lo + agg·per, lo + (agg+1)·per)`, clipped
    /// to the global high end (trailing aggregators can own empty domains).
    fn domain(&self, agg: usize) -> (u64, u64) {
        let start = self.lo.saturating_add(self.per.saturating_mul(agg as u64)).min(self.hi);
        (start, start.saturating_add(self.per).min(self.hi))
    }
}

/// The parts of `ranges` (one rank's view extents, in buffer order) that
/// fall inside `dom`, as `(file offset, position in that rank's buffer,
/// len)`. Positions increase along the iteration.
fn pieces_in(
    ranges: &[(u64, u64)],
    dom: (u64, u64),
) -> impl Iterator<Item = (u64, usize, usize)> + '_ {
    let mut pos = 0u64;
    ranges.iter().filter_map(move |&(off, len)| {
        let start = pos;
        pos += len;
        let lo = off.max(dom.0);
        let hi = off.saturating_add(len).min(dom.1);
        (lo < hi).then(|| (lo, (start + (lo - off)) as usize, (hi - lo) as usize))
    })
}

/// Cut `buf` into the `(file offset, position, len)` slots of `slots`
/// (positions increasing, slots disjoint) and append them to `out`.
fn carve<'b>(
    buf: &'b mut [u8],
    slots: impl Iterator<Item = (u64, usize, usize)>,
    out: &mut Vec<(u64, &'b mut [u8])>,
) {
    let mut rest = buf;
    let mut base = 0usize;
    for (abs, pos, len) in slots {
        let (_, tail) = std::mem::take(&mut rest).split_at_mut(pos - base);
        let (piece, tail) = tail.split_at_mut(len);
        out.push((abs, piece));
        rest = tail;
        base = pos + len;
    }
}

/// Walk `msg` — the concatenation of the pieces of `ranges` inside `dom`,
/// sent by rank `from` — handing `f` each piece's file offset, position in
/// that rank's view, and bytes.
fn split_message<'m, E: From<MsgError>>(
    ranges: &[(u64, u64)],
    dom: (u64, u64),
    msg: &'m [u8],
    from: usize,
    mut f: impl FnMut(u64, usize, &'m [u8]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut rest = msg;
    for (abs, pos, len) in pieces_in(ranges, dom) {
        let (piece, tail) = rest.split_at_checked(len).ok_or_else(|| short_message(from))?;
        f(abs, pos, piece)?;
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(short_message(from).into());
    }
    Ok(())
}

fn short_message(rank: usize) -> MsgError {
    MsgError::CollectiveMismatch(format!("two-phase message from rank {rank} has the wrong length"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::SPARE_MIN_BYTES;
    use crate::runtime::run_spmd;
    use drx_pfs::Pfs;

    fn pfs() -> Pfs {
        Pfs::memory(4, 64).unwrap()
    }

    #[test]
    fn open_requires_existing_unless_create() {
        let fs = pfs();
        run_spmd(2, |comm| {
            assert!(MsgFile::open(comm, &fs, "missing", false).is_err());
            let f = MsgFile::open(comm, &fs, "made", true)?;
            assert_eq!(f.len(), 0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn independent_io_through_identity_view() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let f = MsgFile::open(comm, &fs, "f", true)?;
            // Each rank writes its own 100-byte region.
            let me = comm.rank() as u8;
            f.write_at(comm.rank() as u64 * 100, &[me; 100])?;
            comm.barrier()?;
            let mut buf = vec![0u8; 100];
            let peer = 1 - comm.rank();
            f.read_at(peer as u64 * 100, &mut buf)?;
            assert!(buf.iter().all(|&b| b == peer as u8));
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn view_maps_interleaved_blocks() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", true)?;
            // File of 8 blocks of 4 bytes; rank r owns blocks r, r+2, r+4, r+6.
            let base = Datatype::contiguous(4);
            let displs: Vec<usize> = (0..4).map(|i| comm.rank() + 2 * i).collect();
            let ft = Datatype::indexed(&[1; 4], &displs, &base)?;
            f.set_view(0, Some(ft));
            let me = comm.rank() as u8;
            f.write_at(0, &[me; 16])?;
            comm.barrier()?;
            // Raw check: blocks alternate 0,1,0,1… .
            f.set_view(0, None);
            let mut raw = vec![9u8; 32];
            f.read_at(0, &mut raw)?;
            for b in 0..8 {
                let expect = (b % 2) as u8;
                assert!(raw[b * 4..(b + 1) * 4].iter().all(|&x| x == expect), "block {b}");
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn collective_read_matches_independent() {
        let fs = pfs();
        // Seed a 1 KiB file with a known pattern.
        let seed = fs.create("f").unwrap();
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        seed.write_at(0, &pattern).unwrap();
        run_spmd(4, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", false)?;
            // Rank r owns 4 interleaved 32-byte blocks: r, r+4, r+8, r+12.
            let base = Datatype::contiguous(32);
            let displs: Vec<usize> = (0..4).map(|i| comm.rank() + 4 * i).collect();
            f.set_view(0, Some(Datatype::indexed(&[1; 4], &displs, &base)?));
            let mut coll = vec![0u8; 128];
            f.read_all(0, &mut coll)?;
            let mut ind = vec![0u8; 128];
            f.read_at(0, &mut ind)?;
            assert_eq!(coll, ind);
            // Spot-check content against the pattern.
            for (i, d) in displs.iter().enumerate() {
                assert_eq!(&coll[i * 32..(i + 1) * 32], &pattern[d * 32..(d + 1) * 32]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn collective_write_round_trips() {
        let fs = pfs();
        run_spmd(4, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", true)?;
            let base = Datatype::contiguous(16);
            let displs: Vec<usize> = (0..8).map(|i| comm.rank() + 4 * i).collect();
            f.set_view(0, Some(Datatype::indexed(&[1; 8], &displs, &base)?));
            let me = comm.rank() as u8;
            let data: Vec<u8> = (0..128u32).map(|i| me.wrapping_add(i as u8)).collect();
            f.write_all(0, &data)?;
            // Read back collectively and compare.
            let mut back = vec![0u8; 128];
            f.read_all(0, &mut back)?;
            assert_eq!(back, data);
            // And the raw file interleaves ranks 0..4 in 16-byte blocks.
            f.set_view(0, None);
            let mut raw = vec![0u8; 512];
            f.read_at(0, &mut raw)?;
            for b in 0..32 {
                assert_eq!(raw[b * 16], (b % 4) as u8 + ((b / 4) * 16) as u8);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn granule_aligned_domains_hand_the_sink_whole_records() {
        // Two ranks read 3 and 4 interleaved 64-byte records; halving the
        // 7-record hull by bytes would split record 3 between the two
        // aggregators.
        let fs = pfs();
        let seed = fs.create("f").unwrap();
        let pattern: Vec<u8> = (0..448u32).map(|i| (i % 251) as u8).collect();
        seed.write_at(0, &pattern).unwrap();
        run_spmd(2, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", false)?;
            let displs: Vec<usize> = (comm.rank()..7).step_by(2).collect();
            let n = displs.len();
            f.set_view(
                0,
                Some(Datatype::indexed(&vec![1; n], &displs, &Datatype::contiguous(64))?),
            );
            let mut got = vec![0u8; n * 64];
            f.read_all_with(0, got.len() as u64, 64, |pos, piece: &[u8]| {
                assert_eq!((pos % 64, piece.len() % 64), (0, 0), "a split record");
                got[pos..pos + piece.len()].copy_from_slice(piece);
                Ok::<_, MsgError>(())
            })?;
            for (i, &d) in displs.iter().enumerate() {
                assert_eq!(&got[i * 64..(i + 1) * 64], &pattern[d * 64..(d + 1) * 64]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn ranks_disagreeing_on_the_granule_fail_alike() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let f = MsgFile::open(comm, &fs, "f", true)?;
            let granule = 8 << comm.rank();
            match f.write_all_with(0, 64, granule, |_, _: &mut [u8]| Ok::<_, MsgError>(())) {
                Err(MsgError::CollectiveMismatch(_)) => Ok(()),
                other => Err(MsgError::Invalid(format!("write_all_with: {other:?}"))),
            }
        })
        .unwrap();
    }

    #[test]
    fn a_failing_source_writes_nothing_anywhere() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", true)?;
            f.write_at(comm.rank() as u64 * 100, &[0u8; 100])?;
            let displs = [comm.rank()];
            f.set_view(0, Some(Datatype::indexed(&[1], &displs, &Datatype::contiguous(100))?));
            let res = f.write_all_with(0, 100, 1, |_, out: &mut [u8]| {
                out.fill(9);
                match comm.rank() {
                    1 => Err(MsgError::Invalid("source failed".into())),
                    _ => Ok(()),
                }
            });
            match (comm.rank(), res) {
                (0, Err(MsgError::PeerFailed { rank: 1 })) | (1, Err(MsgError::Invalid(_))) => {}
                (rank, other) => {
                    return Err(MsgError::Invalid(format!("rank {rank}: {other:?}")));
                }
            }
            comm.barrier()?;
            f.set_view(0, None);
            let mut raw = vec![1u8; 200];
            f.read_at(0, &mut raw)?;
            assert!(raw.iter().all(|&b| b == 0), "a failed collective wrote");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn collective_with_empty_participants() {
        let fs = pfs();
        let seed = fs.create("f").unwrap();
        seed.write_at(0, &[7u8; 64]).unwrap();
        run_spmd(3, |comm| {
            let f = MsgFile::open(comm, &fs, "f", false)?;
            // Only rank 1 reads; others participate with empty buffers.
            let mut buf = if comm.rank() == 1 { vec![0u8; 64] } else { Vec::new() };
            f.read_all(0, &mut buf)?;
            if comm.rank() == 1 {
                assert!(buf.iter().all(|&b| b == 7));
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn all_empty_collective_is_a_noop() {
        let fs = pfs();
        run_spmd(2, |comm| {
            let f = MsgFile::open(comm, &fs, "f", true)?;
            f.read_all(0, &mut [])?;
            f.write_all(0, &[])?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn collective_uses_fewer_pfs_requests_than_independent() {
        // The point of two-phase I/O: interleaved small blocks coalesce.
        let fs = Pfs::memory(2, 1 << 20).unwrap(); // one huge stripe: isolate coalescing
        let seed = fs.create("f").unwrap();
        seed.write_at(0, &vec![1u8; 64 * 1024]).unwrap();
        let blocks = 64usize;
        let bs = 512usize;

        fs.reset_stats();
        run_spmd(4, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", false)?;
            let base = Datatype::contiguous(bs as u64);
            let displs: Vec<usize> = (0..blocks / 4).map(|i| comm.rank() + 4 * i).collect();
            f.set_view(0, Some(Datatype::indexed(&[1; 16], &displs, &base)?));
            let mut buf = vec![0u8; bs * blocks / 4];
            f.read_at(0, &mut buf)?; // independent
            Ok(())
        })
        .unwrap();
        let independent_reqs = fs.stats().total_requests();

        fs.reset_stats();
        run_spmd(4, |comm| {
            let mut f = MsgFile::open(comm, &fs, "f", false)?;
            let base = Datatype::contiguous(bs as u64);
            let displs: Vec<usize> = (0..blocks / 4).map(|i| comm.rank() + 4 * i).collect();
            f.set_view(0, Some(Datatype::indexed(&[1; 16], &displs, &base)?));
            let mut buf = vec![0u8; bs * blocks / 4];
            f.read_all(0, &mut buf)?; // collective
            Ok(())
        })
        .unwrap();
        let collective_reqs = fs.stats().total_requests();

        assert!(
            collective_reqs < independent_reqs,
            "two-phase ({collective_reqs} requests) should beat independent ({independent_reqs})"
        );
    }

    /// Records of an uneven two-rank view: rank 0 owns 5 of 11 records,
    /// rank 1 the other 6, so the 11-record hull halves mid-record.
    const RECORD: usize = 48 << 10;
    const RECORDS: usize = 11;

    fn records_of(rank: usize) -> Vec<usize> {
        let zero = [0, 1, 2, 5, 8];
        (0..RECORDS).filter(|r| zero.contains(r) == (rank == 0)).collect()
    }

    /// View bytes of `rank` in `round`, never the `0xA5` of a seeded spare.
    fn pattern(rank: usize, round: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i + 97 * rank + 31 * round) % 160) as u8).collect()
    }

    /// Hand the group spares larger than any share, full of `0xA5`: two at
    /// full length, two truncated so a take extends them.
    fn seed_stale_spares(comm: &Comm) {
        for (cap, len) in [(256 << 10, 256 << 10), (320 << 10, 320 << 10), (400 << 10, 1000)] {
            let mut buf = vec![0xA5u8; cap];
            buf.truncate(len);
            comm.recycle_buffer(buf);
        }
        let mut buf = vec![0xA5u8; 512 << 10];
        buf.clear();
        comm.recycle_buffer(buf);
    }

    fn set_record_view(f: &mut MsgFile, rank: usize) -> Result<Vec<usize>> {
        let displs = records_of(rank);
        let ft = Datatype::indexed(
            &vec![1; displs.len()],
            &displs,
            &Datatype::contiguous(RECORD as u64),
        )?;
        f.set_view(0, Some(ft));
        Ok(displs)
    }

    #[test]
    fn recycled_spares_never_leak_stale_bytes() {
        let fs = Pfs::memory(4, 64 << 10).unwrap();
        run_spmd(2, |comm| {
            let me = comm.rank();
            let mut f = MsgFile::open(comm, &fs, "f", true)?;
            let displs = set_record_view(&mut f, me)?;
            let len = displs.len() * RECORD;
            for round in 0..3 {
                comm.barrier()?;
                if me == 0 {
                    seed_stale_spares(comm);
                }
                comm.barrier()?;
                // Byte domains (granule 1) align to the 64 KiB stripe
                // only, and cut record 6 in two.
                let data = pattern(me, round, len);
                f.write_all(0, &data)?;
                if me == 0 {
                    seed_stale_spares(comm);
                }
                comm.barrier()?;
                // Record-aligned domains: the sink sees whole records.
                let mut got = vec![0xFFu8; len];
                f.read_all_with(0, len as u64, RECORD as u64, |pos, piece: &[u8]| {
                    assert_eq!((pos % RECORD, piece.len() % RECORD), (0, 0), "a split record");
                    got[pos..pos + piece.len()].copy_from_slice(piece);
                    Ok::<_, MsgError>(())
                })?;
                assert!(got == data, "round {round}: a sink saw bytes it was not sent");
                comm.barrier()?;
                if me == 0 {
                    seed_stale_spares(comm);
                }
                comm.barrier()?;
                let mut got = vec![0xFFu8; len];
                f.read_all(0, &mut got)?;
                assert!(got == data, "round {round}: read_all saw bytes it was not sent");
                // The file holds exactly what each rank wrote.
                for (i, &d) in displs.iter().enumerate() {
                    let on_file = f.file().read_vec((d * RECORD) as u64, RECORD)?;
                    assert!(on_file == data[i * RECORD..(i + 1) * RECORD], "record {d}");
                }
                let spares = comm.spare_capacities();
                assert!(spares.len() <= 4 && spares.iter().all(|&c| c >= SPARE_MIN_BYTES));
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn a_failed_collective_leaves_no_stale_bytes_for_the_next() {
        use drx_pfs::fault::{Injector, Script};
        use drx_pfs::{PfsConfig, RetryPolicy};
        use std::sync::Arc;
        let inj = Arc::new(Injector::new(Script::empty()));
        let fs = Pfs::new(PfsConfig {
            n_servers: 4,
            stripe_size: 64 << 10,
            injector: Some(Arc::clone(&inj)),
            retry: RetryPolicy { base_delay_us: 1, max_delay_us: 10, ..RetryPolicy::default() },
            ..PfsConfig::default()
        })
        .unwrap();
        run_spmd(2, |comm| {
            let me = comm.rank();
            let mut f = MsgFile::open(comm, &fs, "f", true)?;
            let len = set_record_view(&mut f, me)?.len() * RECORD;
            let set_down = |down: bool| -> Result<()> {
                comm.barrier()?;
                if me == 0 {
                    inj.set_down(2, down);
                    seed_stale_spares(comm);
                }
                comm.barrier()
            };
            let first = pattern(me, 0, len);
            f.write_all(0, &first)?;
            // A failed read, then a good one.
            set_down(true)?;
            let mut got = vec![0xFFu8; len];
            assert!(f.read_all(0, &mut got).is_err(), "read with server 2 down");
            set_down(false)?;
            f.read_all(0, &mut got)?;
            assert!(got == first, "the read after a failed one");
            // A failed write, then a good one.
            set_down(true)?;
            assert!(f.write_all(0, &pattern(me, 1, len)).is_err(), "write with server 2 down");
            set_down(false)?;
            let last = pattern(me, 2, len);
            f.write_all(0, &last)?;
            set_down(false)?; // fresh stale spares for the read
            let mut got = vec![0xFFu8; len];
            f.read_all(0, &mut got)?;
            assert!(got == last, "the write after a failed one");
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn the_spare_list_is_bounded_and_best_fit() {
        let comms = Comm::new_group(2);
        let comm = &comms[0];
        let kib = |k: usize| k << 10;
        for k in [64, 200, 300, 1024, 150, 500, 127, 129] {
            comm.recycle_buffer(vec![0u8; kib(k)]);
        }
        // At most 2 × size buffers, none under the threshold: the largest.
        let mut spares = comm.spare_capacities();
        spares.sort_unstable();
        assert_eq!(spares, [kib(200), kib(300), kib(500), kib(1024)]);
        // Best fit: the smallest spare with room, truncated in place.
        let buf = comm.take_buffer(kib(250));
        assert_eq!((buf.len(), buf.capacity()), (kib(250), kib(300)));
        // A take no spare fits allocates fresh and leaves every spare as it
        // was; so does a take below the threshold.
        let big = comm.take_buffer(kib(2048));
        assert_eq!(big.len(), kib(2048));
        let small = comm.take_buffer(kib(100));
        assert_eq!(small.len(), kib(100));
        let mut spares = comm.spare_capacities();
        spares.sort_unstable();
        assert_eq!(spares, [kib(200), kib(500), kib(1024)]);
        // Handing back more than fits pushes out the smallest.
        comm.recycle_buffer(big);
        comm.recycle_buffer(buf);
        comm.recycle_buffer(small);
        let mut spares = comm.spare_capacities();
        spares.sort_unstable();
        assert_eq!(spares, [kib(300), kib(500), kib(1024), kib(2048)]);
    }

    #[test]
    fn collective_io_on_a_split_communicator() {
        // The paper's API takes a "group communicator": only a subset of the
        // world may drive a file's collective I/O. Even ranks do collective
        // writes on their sub-communicator while odd ranks are busy
        // elsewhere.
        let fs = pfs();
        run_spmd(4, |comm| {
            let sub = comm.split((comm.rank() % 2) as u64, comm.rank() as u64)?;
            if comm.rank() % 2 == 0 {
                let mut f = MsgFile::open(&sub, &fs, "subio", true)?;
                let base = Datatype::contiguous(64);
                let displs: Vec<usize> = (0..4).map(|i| sub.rank() + 2 * i).collect();
                f.set_view(0, Some(Datatype::indexed(&[1; 4], &displs, &base)?));
                let data = vec![sub.rank() as u8 + 1; 256];
                f.write_all(0, &data)?;
                let mut back = vec![0u8; 256];
                f.read_all(0, &mut back)?;
                assert_eq!(back, data);
            } else {
                // Odd ranks never touch the file; they synchronize among
                // themselves only.
                sub.barrier()?;
            }
            comm.barrier()?;
            // Everyone can now verify the interleaved blocks independently.
            let f = fs.open("subio").unwrap();
            for b in 0..8 {
                let block = f.read_vec(b * 64, 64).unwrap();
                assert!(block.iter().all(|&x| x == (b % 2) as u8 + 1), "block {b}");
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn a_record_sharing_few_factors_with_the_stripe_keeps_domains_balanced() {
        // A 100×100 f64 chunk image on a 64 KiB stripe: the lcm is about
        // 40 MiB, so stripe alignment would hand four chunks to one
        // aggregator. Record alignment gives each of four aggregators one.
        assert_eq!(domain_grid(80_000, 400_000, 4, 80_000, 64 << 10), (80_000, 80_000));
        // A record that divides the stripe keeps stripe-aligned domains
        // even when one stripe unit is more than an even share.
        assert_eq!(domain_grid(0, 8 << 10, 2, 8, 64 << 10), (0, 64 << 10));
        assert_eq!(domain_grid(0, 8 << 10, 2, 8, 256), (0, 4 << 10));
    }

    /// Rank `rank`'s view over blocks of `block` bytes: the blocks
    /// `owners` gives it (an owner past the last rank is a hole).
    fn owned_view(owners: &[usize], rank: usize, block: u64) -> Option<Datatype> {
        let displs: Vec<usize> = (0..owners.len()).filter(|&b| owners[b] == rank).collect();
        let n = displs.len();
        (n > 0).then(|| Datatype::indexed(&vec![1; n], &displs, &Datatype::contiguous(block)))?.ok()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Domain bounds are multiples of `lcm(granule, stripe)` and no
        /// stripe unit lies in two non-empty domains when that lcm is at
        /// most a stripe unit or an even share of the hull; otherwise the
        /// bounds are multiples of `granule` and as many domains are
        /// non-empty as record alignment gives (a domain may end at the
        /// hull's end instead). The source and sink see whole records, and
        /// the sink's records read back what the source wrote. Exactness
        /// against independent I/O over random stripes is
        /// `tests/prop_two_phase.rs`'s.
        #[test]
        fn domains_align_to_records_and_stripe_units(
            ranks in 1usize..5,
            stripe in 1u64..200,
            servers in 1usize..5,
            workers in 1usize..3,
            kind in 0usize..3,
            chunk in 1u64..13,
            blocks_per in 1u64..6,
            disp_granules in 0u64..4,
            owners in proptest::prelude::prop::collection::vec(0usize..5, 1..24),
        ) {
            let granule = [1, 8, 8 * chunk][kind];
            let block = granule * blocks_per;
            let fs = Pfs::new(drx_pfs::PfsConfig {
                n_servers: servers,
                stripe_size: stripe,
                io_workers: workers,
                ..drx_pfs::PfsConfig::default()
            })
            .unwrap();
            run_spmd(ranks, |comm| {
                let me = comm.rank();
                let mut f = MsgFile::open(comm, &fs, "f", true)?;
                let ft = owned_view(&owners, me, block);
                let len = ft.as_ref().map_or(0, |t| t.size() as usize);
                f.set_view(disp_granules * granule, ft);
                let data = pattern(me, 0, len);
                let whole = |pos: usize, n: usize| {
                    assert_eq!((pos as u64 % granule, n as u64 % granule), (0, 0), "a split record");
                };
                f.write_all_with(0, len as u64, granule, |pos, out: &mut [u8]| {
                    whole(pos, out.len());
                    out.copy_from_slice(&data[pos..pos + out.len()]);
                    Ok::<_, MsgError>(())
                })?;
                if let Some(tp) = f.exchange_ranges(&f.absolute(0, len as u64), granule)? {
                    // The least common multiple, found by counting up, and
                    // the even share of the granule-aligned hull.
                    let both = (1..).map(|k| k * granule).find(|m| m % stripe == 0).unwrap();
                    let lo = tp.ranges.iter().flatten().filter(|r| r.1 > 0).map(|r| r.0).min();
                    let lo = lo.unwrap() / granule * granule;
                    let share = (tp.hi - lo).div_ceil(ranks as u64).div_ceil(granule) * granule;
                    let striped = both <= stripe.max(share);
                    let align = if striped { both } else { granule };
                    let doms: Vec<(u64, u64)> =
                        (0..ranks).map(|a| tp.domain(a)).filter(|d| d.0 < d.1).collect();
                    for (i, &(lo, hi)) in doms.iter().enumerate() {
                        assert_eq!(lo % align, 0, "domain {lo}..{hi}, align {align}");
                        assert!(hi % align == 0 || hi == tp.hi, "domain {lo}..{hi}");
                        if let (true, Some(&(next, _))) = (striped, doms.get(i + 1)) {
                            assert!((hi - 1) / stripe < next / stripe, "a shared stripe unit");
                        }
                    }
                    if !striped {
                        // As many aggregators work as with record alignment.
                        assert_eq!(doms.len() as u64, (tp.hi - lo).div_ceil(share));
                    }
                }
                let mut got = vec![0xFFu8; len];
                f.read_all_with(0, len as u64, granule, |pos, piece: &[u8]| {
                    whole(pos, piece.len());
                    got[pos..pos + piece.len()].copy_from_slice(piece);
                    Ok::<_, MsgError>(())
                })?;
                assert!(got == data, "collective read-back");
                Ok(())
            })
            .unwrap();
        }
    }
}
