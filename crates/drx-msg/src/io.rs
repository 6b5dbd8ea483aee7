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
//! allgathered view extents, so the exchanged messages carry data only and
//! each byte is copied once between the file system and its destination.

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

    /// Collective two-phase read (`MPI_File_read_all`). Every rank must
    /// participate; ranks may request disjoint (even empty) view ranges.
    ///
    /// Each aggregator reads the requested pieces inside its domain with
    /// one gather call in file order: its own pieces land directly in
    /// `buf`, every other rank's pieces in that rank's send buffer. One
    /// all-to-all then ships the send buffers, and each received byte is
    /// copied once, into its place in `buf`.
    pub fn read_all(&self, data_offset: u64, buf: &mut [u8]) -> Result<()> {
        let ranges = self.absolute(data_offset, buf.len() as u64);
        let Some(tp) = self.exchange_ranges(&ranges)? else {
            return Ok(()); // nobody asked for anything
        };
        let me = self.comm.rank();
        let dom = tp.domain(me);
        // Phase 1: read my domain into `buf` and the send buffers.
        let mut to_each: Vec<Vec<u8>> = tp
            .ranges
            .iter()
            .enumerate()
            .map(|(r, rr)| {
                let n = if r == me { 0 } else { pieces_in(rr, dom).map(|(_, _, l)| l).sum() };
                vec![0u8; n]
            })
            .collect();
        let mut pieces: Vec<(u64, &mut [u8])> = Vec::new();
        carve(buf, pieces_in(&ranges, dom), &mut pieces);
        for (r, out) in to_each.iter_mut().enumerate().filter(|&(r, _)| r != me) {
            let mut cursor = 0;
            let packed = pieces_in(&tp.ranges[r], dom).map(|(abs, _, len)| {
                cursor += len;
                (abs, cursor - len, len)
            });
            carve(out, packed, &mut pieces);
        }
        pieces.sort_by_key(|&(abs, _)| abs);
        let io = self.file.read_pieces(pieces);
        // Phase 2: ship the send buffers — or, after a failed read, a
        // failure mark, so no peer waits for data that never comes — and
        // place what every other aggregator read for me.
        let received = self.comm.alltoallv_unless_failed(io.is_ok().then_some(to_each))?;
        io?;
        let received = received.map_err(|rank| MsgError::PeerFailed { rank })?;
        for (agg, msg) in received.iter().enumerate().filter(|&(agg, _)| agg != me) {
            let mut cursor = 0;
            for (_, pos, len) in pieces_in(&ranges, tp.domain(agg)) {
                let src = msg.get(cursor..cursor + len).ok_or_else(|| short_message(agg))?;
                buf[pos..pos + len].copy_from_slice(src);
                cursor += len;
            }
            if cursor != msg.len() {
                return Err(short_message(agg));
            }
        }
        Ok(())
    }

    /// Collective two-phase write (`MPI_File_write_all`).
    ///
    /// Each rank sends every other aggregator the concatenation of its
    /// pieces inside that aggregator's domain. The aggregator then writes
    /// its domain with one gather call in file order, taking its own
    /// pieces from `data` in place and the others' straight from the
    /// received messages.
    pub fn write_all(&self, data_offset: u64, data: &[u8]) -> Result<()> {
        let ranges = self.absolute(data_offset, data.len() as u64);
        let Some(tp) = self.exchange_ranges(&ranges)? else {
            return Ok(());
        };
        let me = self.comm.rank();
        // Phase 1: route my data pieces to the owning aggregators.
        let to_each: Vec<Vec<u8>> = (0..self.comm.size())
            .map(|agg| {
                if agg == me {
                    return Vec::new();
                }
                let dom = tp.domain(agg);
                let mut out = Vec::with_capacity(pieces_in(&ranges, dom).map(|(_, _, l)| l).sum());
                for (_, pos, len) in pieces_in(&ranges, dom) {
                    out.extend_from_slice(&data[pos..pos + len]);
                }
                out
            })
            .collect();
        let received = self.comm.alltoallv_bytes(to_each)?;
        // Phase 2: write my domain.
        let dom = tp.domain(me);
        let mut pieces: Vec<(u64, &[u8])> = Vec::new();
        let mut io = Ok(());
        for (r, msg) in received.iter().enumerate() {
            if r == me {
                pieces.extend(
                    pieces_in(&ranges, dom).map(|(abs, pos, len)| (abs, &data[pos..pos + len])),
                );
                continue;
            }
            let mut rest = &msg[..];
            for (abs, _, len) in pieces_in(&tp.ranges[r], dom) {
                match rest.split_at_checked(len) {
                    Some((piece, tail)) => {
                        pieces.push((abs, piece));
                        rest = tail;
                    }
                    None => io = Err(short_message(r)),
                }
            }
            if !rest.is_empty() {
                io = Err(short_message(r));
            }
        }
        // Where ranks' pieces overlap, which lands last is unspecified (as
        // in MPI).
        pieces.sort_by_key(|&(abs, _)| abs);
        let io = io.and_then(|()| self.file.write_pieces(pieces).map_err(MsgError::from));
        // Settle the outcome on every rank, so a failure here fails the
        // call everywhere; also the barrier that makes the writes visible.
        let failed = self.comm.allgather_vec::<u64>(&[u64::from(io.is_err())])?;
        io?;
        match failed.iter().position(|f| f.first() != Some(&0)) {
            Some(rank) => Err(MsgError::PeerFailed { rank }),
            None => Ok(()),
        }
    }

    /// Allgather everyone's absolute ranges and derive the aggregator
    /// domains; `None` when all ranks requested nothing.
    fn exchange_ranges(&self, mine: &[(u64, u64)]) -> Result<Option<TwoPhase>> {
        let flat: Vec<u64> = mine.iter().flat_map(|&(o, l)| [o, l]).collect();
        let all = self.comm.allgather_vec::<u64>(&flat)?;
        let ranges: Vec<Vec<(u64, u64)>> =
            all.into_iter().map(|v| v.chunks_exact(2).map(|c| (c[0], c[1])).collect()).collect();
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
        let per = (hi - lo).div_ceil(self.comm.size() as u64).max(1);
        Ok(Some(TwoPhase { lo, hi, per, ranges }))
    }
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

fn short_message(rank: usize) -> MsgError {
    MsgError::CollectiveMismatch(format!("two-phase message from rank {rank} has the wrong length"))
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
