//! Communicators: the SPMD group abstraction, point-to-point messaging and
//! the rendezvous primitive all collectives are built on.
//!
//! Ranks are OS threads inside one process (see `DESIGN.md` — the paper ran
//! MPI processes over MPICH2; thread-ranks exercise the same SPMD code
//! structure with real shared-memory concurrency). A `Comm` value is one
//! rank's view of the group.

use crate::error::{MsgError, Result};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// What can travel through the rendezvous exchange: raw bytes, or a shared
/// object (used to hand `Arc`s across ranks, e.g. RMA windows and split
/// communicators — things real MPI shares via the runtime, not the wire).
#[derive(Clone)]
pub(crate) enum Payload {
    Bytes(Vec<u8>),
    Obj(Arc<dyn Any + Send + Sync>),
}

impl Payload {
    pub(crate) fn bytes(self) -> Result<Vec<u8>> {
        match self {
            Payload::Bytes(b) => Ok(b),
            Payload::Obj(_) => {
                Err(MsgError::CollectiveMismatch("expected bytes, got object".into()))
            }
        }
    }
}

/// One queued point-to-point message.
struct Message {
    src: usize,
    tag: u32,
    data: Vec<u8>,
}

/// Per-destination mailbox with (source, tag) matching.
struct Mailbox {
    queue: Mutex<Vec<Message>>,
    cond: Condvar,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox { queue: Mutex::new(Vec::new()), cond: Condvar::new() }
    }
}

/// State of the in-flight collective exchange (an all-to-all rendezvous).
struct ExchangeState {
    /// Number of completed exchanges on this communicator.
    seq: u64,
    deposited: usize,
    /// Deposited rows, one per source rank; each row has one payload per
    /// destination.
    matrix: Vec<Option<Vec<Payload>>>,
    /// The completed matrix, published to all ranks; each rank moves its
    /// own column out, so payloads are handed over without a copy.
    result: Option<Vec<Vec<Option<Payload>>>>,
    drained: usize,
}

pub(crate) struct CommInner {
    size: usize,
    mailboxes: Vec<Mailbox>,
    exch: Mutex<ExchangeState>,
    exch_cond: Condvar,
    poisoned: AtomicBool,
    /// Sub-communicators created from this one; poisoning cascades so no
    /// rank can block forever on a child after a peer dies.
    children: Mutex<Vec<Weak<CommInner>>>,
    /// Exchange buffers the two-phase engines are done with, kept for the
    /// group's next collective (messages change hands in every exchange,
    /// so one list per group, not per rank, sees them again). A leaf
    /// lock: held for one pick or one push, never across a call.
    spares: Mutex<Vec<Vec<u8>>>,
}

/// Spare exchange buffers kept per rank of the group.
const SPARES_PER_RANK: usize = 2;

/// Smaller buffers are not kept: below glibc's default mmap threshold they
/// come from the heap without page faults.
pub(crate) const SPARE_MIN_BYTES: usize = 128 << 10;

impl CommInner {
    pub(crate) fn new(size: usize) -> Arc<Self> {
        Arc::new(CommInner {
            size,
            mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            exch: Mutex::new(ExchangeState {
                seq: 0,
                deposited: 0,
                matrix: (0..size).map(|_| None).collect(),
                result: None,
                drained: 0,
            }),
            exch_cond: Condvar::new(),
            poisoned: AtomicBool::new(false),
            children: Mutex::new(Vec::new()),
            spares: Mutex::new(Vec::new()),
        })
    }

    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        for mb in &self.mailboxes {
            let _guard = mb.queue.lock();
            mb.cond.notify_all();
        }
        {
            let _guard = self.exch.lock();
            self.exch_cond.notify_all();
        }
        for child in self.children.lock().iter() {
            if let Some(c) = child.upgrade() {
                c.poison();
            }
        }
    }

    fn check_poison(&self) -> Result<()> {
        if self.poisoned.load(Ordering::SeqCst) {
            Err(MsgError::Poisoned)
        } else {
            Ok(())
        }
    }
}

/// One rank's handle on a communicator (the `MPI_Comm` counterpart).
///
/// Cloning a `Comm` yields another handle for the *same rank* — clones share
/// the collective sequence counter, so a rank may drive collectives through
/// any of its clones, but a `Comm` must never be sent to a different rank's
/// thread.
#[derive(Clone)]
pub struct Comm {
    inner: Arc<CommInner>,
    rank: usize,
    coll_seq: Arc<AtomicU64>,
}

impl Comm {
    /// Create the communicators of a fresh group, one per rank.
    pub(crate) fn new_group(size: usize) -> Vec<Comm> {
        let inner = CommInner::new(size);
        (0..size)
            .map(|rank| Comm {
                inner: Arc::clone(&inner),
                rank,
                coll_seq: Arc::new(AtomicU64::new(0)),
            })
            .collect()
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.inner.size
    }

    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    pub(crate) fn inner(&self) -> &Arc<CommInner> {
        &self.inner
    }

    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            Err(MsgError::BadRank { rank, size: self.size() })
        } else {
            Ok(())
        }
    }

    /// An exchange buffer of `len` bytes: the group's smallest spare with
    /// room for `len`, truncated or extended within its capacity, else a
    /// fresh one. A reused buffer keeps its old bytes, so the caller must
    /// overwrite every byte before anything reads or sends it.
    pub(crate) fn take_buffer(&self, len: usize) -> Vec<u8> {
        let spare = if len < SPARE_MIN_BYTES {
            None
        } else {
            let mut spares = self.inner.spares.lock();
            let fit = (0..spares.len())
                .filter(|&i| spares[i].capacity() >= len)
                .min_by_key(|&i| spares[i].capacity());
            fit.map(|i| spares.swap_remove(i))
        };
        match spare {
            Some(mut buf) => {
                buf.resize(len, 0);
                buf
            }
            None => vec![0u8; len],
        }
    }

    /// Hand an exchange buffer back for the group's next collective. The
    /// list keeps the `2 × size` largest buffers of at least
    /// [`SPARE_MIN_BYTES`]; one pushed out is freed after the lock.
    pub(crate) fn recycle_buffer(&self, buf: Vec<u8>) {
        if buf.capacity() < SPARE_MIN_BYTES {
            return;
        }
        let evicted = {
            let mut spares = self.inner.spares.lock();
            spares.push(buf);
            if spares.len() > SPARES_PER_RANK * self.size() {
                let smallest = (0..spares.len()).min_by_key(|&i| spares[i].capacity());
                smallest.map(|i| spares.swap_remove(i))
            } else {
                None
            }
        };
        drop(evicted);
    }

    /// The capacities of the group's spare exchange buffers.
    #[cfg(test)]
    pub(crate) fn spare_capacities(&self) -> Vec<usize> {
        self.inner.spares.lock().iter().map(Vec::capacity).collect()
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send raw bytes to `dst` with a tag (non-blocking: enqueues).
    pub fn send_bytes(&self, dst: usize, tag: u32, data: Vec<u8>) -> Result<()> {
        self.check_rank(dst)?;
        self.inner.check_poison()?;
        let mb = &self.inner.mailboxes[dst];
        mb.queue.lock().push(Message { src: self.rank, tag, data });
        mb.cond.notify_all();
        Ok(())
    }

    /// Blocking receive matching on optional source and tag. Returns
    /// `(source, tag, data)`.
    pub fn recv_bytes(
        &self,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<(usize, u32, Vec<u8>)> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let mb = &self.inner.mailboxes[self.rank];
        let mut queue = mb.queue.lock();
        loop {
            self.inner.check_poison()?;
            if let Some(pos) = queue
                .iter()
                .position(|m| src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t))
            {
                let m = queue.remove(pos);
                return Ok((m.src, m.tag, m.data));
            }
            mb.cond.wait(&mut queue);
        }
    }

    /// Non-blocking receive; `None` when no matching message is queued.
    pub fn try_recv_bytes(
        &self,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<Option<(usize, u32, Vec<u8>)>> {
        self.inner.check_poison()?;
        let mb = &self.inner.mailboxes[self.rank];
        let mut queue = mb.queue.lock();
        if let Some(pos) = queue
            .iter()
            .position(|m| src.is_none_or(|s| m.src == s) && tag.is_none_or(|t| m.tag == t))
        {
            let m = queue.remove(pos);
            Ok(Some((m.src, m.tag, m.data)))
        } else {
            Ok(None)
        }
    }

    /// Typed send of a scalar slice.
    pub fn send_slice<T: crate::wire::Scalar>(
        &self,
        dst: usize,
        tag: u32,
        vals: &[T],
    ) -> Result<()> {
        self.send_bytes(dst, tag, crate::wire::encode(vals))
    }

    /// Typed receive of a scalar vector.
    pub fn recv_vec<T: crate::wire::Scalar>(
        &self,
        src: Option<usize>,
        tag: Option<u32>,
    ) -> Result<(usize, u32, Vec<T>)> {
        let (s, t, data) = self.recv_bytes(src, tag)?;
        Ok((s, t, crate::wire::decode(&data)))
    }

    // ------------------------------------------------------------------
    // The rendezvous exchange primitive
    // ------------------------------------------------------------------

    /// All-to-all payload exchange: rank `r` contributes `row[d]` for every
    /// destination `d` and receives `result[s]` = what each source `s`
    /// addressed to `r`. All collectives are built on this. Payloads move
    /// to their destination: no byte is copied on the way.
    ///
    /// Every rank of the communicator must call this the same number of
    /// times in the same order (the usual SPMD collective contract).
    pub(crate) fn exchange(&self, row: Vec<Payload>) -> Result<Vec<Payload>> {
        let size = self.size();
        if row.len() != size {
            return Err(MsgError::CollectiveMismatch(format!(
                "exchange row has {} entries for {} ranks",
                row.len(),
                size
            )));
        }
        let my_seq = self.coll_seq.load(Ordering::Relaxed);
        let mut st = self.inner.exch.lock();
        // Wait for our round to open (previous exchange fully drained).
        while st.seq != my_seq || st.result.is_some() {
            self.inner.check_poison()?;
            self.inner.exch_cond.wait(&mut st);
        }
        self.inner.check_poison()?;
        st.matrix[self.rank] = Some(row);
        st.deposited += 1;
        if st.deposited == size {
            let rows: Vec<Vec<Option<Payload>>> = st
                .matrix
                .iter_mut()
                .map(|r| r.take().expect("all rows deposited").into_iter().map(Some).collect())
                .collect();
            st.result = Some(rows);
            st.deposited = 0;
            st.drained = 0;
            self.inner.exch_cond.notify_all();
        } else {
            while st.result.is_none() {
                self.inner.check_poison()?;
                self.inner.exch_cond.wait(&mut st);
            }
            self.inner.check_poison()?;
        }
        let rank = self.rank;
        let column: Option<Vec<Payload>> = st
            .result
            .as_mut()
            .expect("result published")
            .iter_mut()
            .map(|row| row[rank].take())
            .collect();
        st.drained += 1;
        if st.drained == size {
            st.result = None;
            st.seq += 1;
            self.inner.exch_cond.notify_all();
        }
        drop(st);
        self.coll_seq.store(my_seq + 1, Ordering::Relaxed);
        column.ok_or_else(|| MsgError::CollectiveMismatch("exchange column drained twice".into()))
    }

    /// Byte-only exchange convenience.
    pub fn alltoall_bytes(&self, to_each: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        let row = to_each.into_iter().map(Payload::Bytes).collect();
        self.exchange(row)?.into_iter().map(Payload::bytes).collect()
    }

    /// Share a thread-safe object with every rank: each rank contributes one
    /// `Arc` and receives everyone's, indexed by rank. (The runtime-level
    /// sharing MPI does internally for windows and communicators.)
    pub fn share_obj<T: Send + Sync + 'static>(&self, obj: Arc<T>) -> Result<Vec<Arc<T>>> {
        let erased: Arc<dyn Any + Send + Sync> = obj;
        let row = vec![Payload::Obj(erased); self.size()];
        self.exchange(row)?
            .into_iter()
            .map(|p| match p {
                Payload::Obj(o) => o
                    .downcast::<T>()
                    .map_err(|_| MsgError::CollectiveMismatch("object type mismatch".into())),
                Payload::Bytes(_) => {
                    Err(MsgError::CollectiveMismatch("expected object, got bytes".into()))
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Split into disjoint sub-communicators by `color`; ranks with equal
    /// color form a group, ordered by `(key, old rank)`. The `MPI_Comm_split`
    /// counterpart.
    pub fn split(&self, color: u64, key: u64) -> Result<Comm> {
        // 1. Gather everyone's (color, key).
        let mine = crate::wire::encode(&[color, key]);
        let all = self.alltoall_bytes(vec![mine; self.size()])?;
        let pairs: Vec<(u64, u64)> = all
            .iter()
            .map(|b| {
                let v = crate::wire::decode::<u64>(b);
                (v[0], v[1])
            })
            .collect();
        // 2. My group: ranks with my color, sorted by (key, old rank).
        let mut members: Vec<usize> = (0..self.size()).filter(|&r| pairs[r].0 == color).collect();
        members.sort_by_key(|&r| (pairs[r].1, r));
        let new_rank = members.iter().position(|&r| r == self.rank).expect("self in group");
        let leader = members[0];
        // 3. Each leader creates the group's shared state and distributes it
        //    through an object exchange row addressed to its members.
        let mut row: Vec<Payload> = vec![Payload::Bytes(Vec::new()); self.size()];
        if self.rank == leader {
            let new_inner = CommInner::new(members.len());
            self.inner.children.lock().push(Arc::downgrade(&new_inner));
            let erased: Arc<dyn Any + Send + Sync> = new_inner;
            for &m in &members {
                row[m] = Payload::Obj(Arc::clone(&erased));
            }
        }
        let col = self.exchange(row)?;
        let inner = match col.into_iter().nth(leader).expect("leader column present") {
            Payload::Obj(o) => o
                .downcast::<CommInner>()
                .map_err(|_| MsgError::CollectiveMismatch("split object mismatch".into()))?,
            Payload::Bytes(_) => {
                return Err(MsgError::CollectiveMismatch("missing split communicator".into()))
            }
        };
        Ok(Comm { inner, rank: new_rank, coll_seq: Arc::new(AtomicU64::new(0)) })
    }

    /// Duplicate the communicator (fresh collective context, same group).
    pub fn dup(&self) -> Result<Comm> {
        self.split(0, self.rank as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_spmd;

    #[test]
    fn p2p_send_recv_with_matching() {
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(1, 7, vec![1, 2, 3])?;
                comm.send_bytes(1, 9, vec![9])?;
            } else {
                // Receive tag 9 first even though it was sent second.
                let (src, tag, data) = comm.recv_bytes(Some(0), Some(9))?;
                assert_eq!((src, tag, data), (0, 9, vec![9]));
                let (_, _, data) = comm.recv_bytes(None, None)?;
                assert_eq!(data, vec![1, 2, 3]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn typed_p2p() {
        run_spmd(2, |comm| {
            if comm.rank() == 0 {
                comm.send_slice(1, 0, &[1.5f64, -2.0])?;
            } else {
                let (_, _, v) = comm.recv_vec::<f64>(Some(0), None)?;
                assert_eq!(v, vec![1.5, -2.0]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn try_recv_nonblocking() {
        run_spmd(2, |comm| {
            if comm.rank() == 1 {
                assert!(comm.try_recv_bytes(None, None)?.is_none());
            }
            comm.barrier()?;
            if comm.rank() == 0 {
                comm.send_bytes(1, 0, vec![5])?;
            }
            comm.barrier()?;
            if comm.rank() == 1 {
                let got = comm.try_recv_bytes(Some(0), Some(0))?;
                assert_eq!(got.unwrap().2, vec![5]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn alltoall_exchanges_rows_for_columns() {
        run_spmd(4, |comm| {
            let me = comm.rank() as u8;
            let row: Vec<Vec<u8>> = (0..4).map(|d| vec![me, d as u8]).collect();
            let col = comm.alltoall_bytes(row)?;
            for (s, payload) in col.iter().enumerate() {
                assert_eq!(payload, &vec![s as u8, me]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        run_spmd(3, |comm| {
            for round in 0..50u8 {
                let row = vec![vec![round, comm.rank() as u8]; 3];
                let col = comm.alltoall_bytes(row)?;
                for (s, p) in col.iter().enumerate() {
                    assert_eq!(p, &vec![round, s as u8]);
                }
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn share_obj_distributes_arcs() {
        run_spmd(3, |comm| {
            let mine = Arc::new(comm.rank() * 10);
            let all = comm.share_obj(mine)?;
            let vals: Vec<usize> = all.iter().map(|a| **a).collect();
            assert_eq!(vals, vec![0, 10, 20]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn split_forms_sub_groups() {
        run_spmd(4, |comm| {
            // Even ranks and odd ranks form two communicators.
            let sub = comm.split((comm.rank() % 2) as u64, comm.rank() as u64)?;
            assert_eq!(sub.size(), 2);
            assert_eq!(sub.rank(), comm.rank() / 2);
            // The sub-communicator works for its own collectives.
            let col = sub.alltoall_bytes(vec![vec![comm.rank() as u8]; 2])?;
            let expected: Vec<Vec<u8>> =
                if comm.rank() % 2 == 0 { vec![vec![0], vec![2]] } else { vec![vec![1], vec![3]] };
            assert_eq!(col, expected);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn dup_gives_independent_context() {
        run_spmd(2, |comm| {
            let d = comm.dup()?;
            assert_eq!(d.size(), comm.size());
            assert_eq!(d.rank(), comm.rank());
            // Collectives on the dup don't disturb the parent.
            d.barrier()?;
            comm.barrier()?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn bad_rank_is_rejected() {
        run_spmd(2, |comm| {
            assert!(matches!(
                comm.send_bytes(5, 0, vec![]),
                Err(MsgError::BadRank { rank: 5, size: 2 })
            ));
            Ok(())
        })
        .unwrap();
    }
}
