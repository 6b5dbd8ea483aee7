//! Collective operations, all built on the rendezvous exchange primitive of
//! [`Comm`]: barrier, broadcast, gather/allgather, scatter, reductions and
//! vector all-to-all — the subset of MPI-2 collectives DRX-MP uses.

use crate::comm::{Comm, Payload};
use crate::error::{MsgError, Result};
use crate::wire::{decode, encode, ReduceOp, Scalar};

impl Comm {
    /// Block until every rank of the communicator has arrived.
    pub fn barrier(&self) -> Result<()> {
        let row = vec![Payload::Bytes(Vec::new()); self.size()];
        self.exchange(row)?;
        Ok(())
    }

    /// Broadcast `data` from `root`; every rank returns the root's bytes.
    pub fn bcast_bytes(&self, root: usize, data: Option<Vec<u8>>) -> Result<Vec<u8>> {
        if root >= self.size() {
            return Err(MsgError::BadRank { rank: root, size: self.size() });
        }
        let row = if self.rank() == root {
            let d = data.ok_or_else(|| {
                MsgError::CollectiveMismatch("root must supply broadcast data".into())
            })?;
            vec![Payload::Bytes(d); self.size()]
        } else {
            vec![Payload::Bytes(Vec::new()); self.size()]
        };
        let col = self.exchange(row)?;
        col.into_iter().nth(root).expect("root column").bytes()
    }

    /// Typed broadcast of a scalar vector.
    pub fn bcast_vec<T: Scalar>(&self, root: usize, data: Option<&[T]>) -> Result<Vec<T>> {
        let bytes = self.bcast_bytes(root, data.map(encode))?;
        Ok(decode(&bytes))
    }

    /// Gather every rank's bytes at `root` (others receive an empty vec).
    pub fn gather_bytes(&self, root: usize, data: Vec<u8>) -> Result<Vec<Vec<u8>>> {
        if root >= self.size() {
            return Err(MsgError::BadRank { rank: root, size: self.size() });
        }
        let mut row = vec![Payload::Bytes(Vec::new()); self.size()];
        row[root] = Payload::Bytes(data);
        let col = self.exchange(row)?;
        if self.rank() == root {
            col.into_iter().map(Payload::bytes).collect()
        } else {
            Ok(Vec::new())
        }
    }

    /// All-gather: every rank receives every rank's bytes, indexed by rank.
    /// Contributions may have different lengths (the `MPI_Allgatherv`
    /// behaviour).
    pub fn allgather_bytes(&self, data: Vec<u8>) -> Result<Vec<Vec<u8>>> {
        let row = vec![Payload::Bytes(data); self.size()];
        self.exchange(row)?.into_iter().map(Payload::bytes).collect()
    }

    /// Typed all-gather of scalar vectors.
    pub fn allgather_vec<T: Scalar>(&self, data: &[T]) -> Result<Vec<Vec<T>>> {
        Ok(self.allgather_bytes(encode(data))?.iter().map(|b| decode(b)).collect())
    }

    /// Scatter: `root` supplies one byte vector per rank; each rank receives
    /// its own.
    pub fn scatter_bytes(&self, root: usize, parts: Option<Vec<Vec<u8>>>) -> Result<Vec<u8>> {
        if root >= self.size() {
            return Err(MsgError::BadRank { rank: root, size: self.size() });
        }
        let row = if self.rank() == root {
            let parts = parts.ok_or_else(|| {
                MsgError::CollectiveMismatch("root must supply scatter parts".into())
            })?;
            if parts.len() != self.size() {
                return Err(MsgError::CollectiveMismatch(format!(
                    "scatter needs {} parts, got {}",
                    self.size(),
                    parts.len()
                )));
            }
            parts.into_iter().map(Payload::Bytes).collect()
        } else {
            vec![Payload::Bytes(Vec::new()); self.size()]
        };
        let col = self.exchange(row)?;
        col.into_iter().nth(root).expect("root column").bytes()
    }

    /// All-reduce over `f64` vectors (element-wise, deterministic rank-order
    /// fold). All contributions must have equal length.
    pub fn allreduce_f64(&self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        let all = self.allgather_vec::<f64>(data)?;
        fold_equal_len(all, op, ReduceOp::fold_f64)
    }

    /// All-reduce over `u64` vectors.
    pub fn allreduce_u64(&self, data: &[u64], op: ReduceOp) -> Result<Vec<u64>> {
        let all = self.allgather_vec::<u64>(data)?;
        fold_equal_len(all, op, ReduceOp::fold_u64)
    }

    /// All-reduce over `i64` vectors.
    pub fn allreduce_i64(&self, data: &[i64], op: ReduceOp) -> Result<Vec<i64>> {
        let all = self.allgather_vec::<i64>(data)?;
        fold_equal_len(all, op, ReduceOp::fold_i64)
    }

    /// Reduce at `root` over `f64` vectors; non-roots receive an empty vec.
    pub fn reduce_f64(&self, root: usize, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        let all = self.gather_vecs_at::<f64>(root, data)?;
        if self.rank() == root {
            fold_equal_len(all, op, ReduceOp::fold_f64)
        } else {
            Ok(Vec::new())
        }
    }

    fn gather_vecs_at<T: Scalar>(&self, root: usize, data: &[T]) -> Result<Vec<Vec<T>>> {
        Ok(self.gather_bytes(root, encode(data))?.iter().map(|b| decode(b)).collect())
    }

    /// Vector all-to-all: `to_each[d]` goes to rank `d`; returns what each
    /// source sent here, indexed by source (the `MPI_Alltoallv` workhorse of
    /// two-phase collective I/O).
    pub fn alltoallv_bytes(&self, to_each: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>> {
        self.alltoall_bytes(to_each)
    }

    /// [`Comm::alltoallv_bytes`] after a local phase that may have failed:
    /// a failed rank passes `None` and sends a failure mark instead of
    /// data. Every rank receives the data, or `Err(rank)` naming the first
    /// rank that failed — the outcome settles in the same round.
    pub(crate) fn alltoallv_unless_failed(
        &self,
        to_each: Option<Vec<Vec<u8>>>,
    ) -> Result<std::result::Result<Vec<Vec<u8>>, usize>> {
        let row = match to_each {
            Some(parts) => parts.into_iter().map(Payload::Bytes).collect(),
            None => vec![Payload::Obj(std::sync::Arc::new(())); self.size()],
        };
        let col = self.exchange(row)?;
        match col.iter().position(|p| matches!(p, Payload::Obj(_))) {
            Some(rank) => Ok(Err(rank)),
            None => col.into_iter().map(Payload::bytes).collect::<Result<_>>().map(Ok),
        }
    }

    /// Exclusive prefix sum of a `u64` (rank r receives the sum over ranks
    /// `< r`) — handy for offset assignment.
    pub fn exscan_u64(&self, value: u64) -> Result<u64> {
        let all = self.allgather_vec::<u64>(&[value])?;
        Ok(all[..self.rank()].iter().map(|v| v[0]).sum())
    }

    /// Inclusive prefix reduction over `u64` vectors (`MPI_Scan`): rank r
    /// receives `op` folded over the contributions of ranks `0..=r`.
    pub fn scan_u64(&self, data: &[u64], op: ReduceOp) -> Result<Vec<u64>> {
        let all = self.allgather_vec::<u64>(data)?;
        let first = all.first().map(|v| v.len()).unwrap_or(0);
        if all.iter().any(|v| v.len() != first) {
            return Err(MsgError::CollectiveMismatch("scan contributions differ in length".into()));
        }
        let mut acc = all[0].clone();
        for v in &all[1..=self.rank()] {
            op.fold_u64(&mut acc, v);
        }
        Ok(acc)
    }

    /// Gather with per-rank counts returned alongside (`MPI_Gatherv`-style
    /// convenience): root receives `(data, counts)` where `data` is the
    /// rank-ordered concatenation.
    pub fn gatherv_bytes(&self, root: usize, data: Vec<u8>) -> Result<(Vec<u8>, Vec<usize>)> {
        let parts = self.gather_bytes(root, data)?;
        let counts: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        Ok((parts.concat(), counts))
    }
}

fn fold_equal_len<T: Scalar>(
    mut all: Vec<Vec<T>>,
    op: ReduceOp,
    fold: impl Fn(ReduceOp, &mut [T], &[T]),
) -> Result<Vec<T>> {
    let first = all.first().map(|v| v.len()).unwrap_or(0);
    if all.iter().any(|v| v.len() != first) {
        return Err(MsgError::CollectiveMismatch("reduce contributions differ in length".into()));
    }
    let mut acc = all.remove(0);
    for v in &all {
        fold(op, &mut acc, v);
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_spmd;

    #[test]
    fn bcast_from_each_root() {
        run_spmd(3, |comm| {
            for root in 0..3 {
                let data = if comm.rank() == root { Some(vec![root as u8; 4]) } else { None };
                let got = comm.bcast_bytes(root, data)?;
                assert_eq!(got, vec![root as u8; 4]);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn gather_collects_at_root_only() {
        run_spmd(4, |comm| {
            let got = comm.gather_bytes(2, vec![comm.rank() as u8])?;
            if comm.rank() == 2 {
                assert_eq!(got, vec![vec![0], vec![1], vec![2], vec![3]]);
            } else {
                assert!(got.is_empty());
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn allgather_variable_lengths() {
        run_spmd(3, |comm| {
            let data = vec![comm.rank() as u8; comm.rank() + 1];
            let got = comm.allgather_bytes(data)?;
            assert_eq!(got, vec![vec![0], vec![1, 1], vec![2, 2, 2]]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn scatter_distributes_parts() {
        run_spmd(3, |comm| {
            let parts =
                if comm.rank() == 0 { Some(vec![vec![10], vec![20, 20], vec![30]]) } else { None };
            let got = comm.scatter_bytes(0, parts)?;
            let expected = match comm.rank() {
                0 => vec![10],
                1 => vec![20, 20],
                _ => vec![30],
            };
            assert_eq!(got, expected);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn scatter_wrong_part_count_errors() {
        let err = run_spmd(2, |comm| {
            let parts = if comm.rank() == 0 { Some(vec![vec![1]]) } else { None };
            if comm.rank() == 0 {
                comm.scatter_bytes(0, parts).map(|_| ())
            } else {
                // Peer aborts with poison once root errors out.
                match comm.scatter_bytes(0, None) {
                    Err(_) => Ok(()),
                    Ok(_) => panic!("expected failure"),
                }
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("scatter"));
    }

    #[test]
    fn reductions() {
        run_spmd(4, |comm| {
            let r = comm.rank() as f64;
            let sum = comm.allreduce_f64(&[r, 2.0 * r], ReduceOp::Sum)?;
            assert_eq!(sum, vec![6.0, 12.0]);
            let max = comm.allreduce_f64(&[r], ReduceOp::Max)?;
            assert_eq!(max, vec![3.0]);
            let min = comm.allreduce_u64(&[comm.rank() as u64 + 5], ReduceOp::Min)?;
            assert_eq!(min, vec![5]);
            let at_root = comm.reduce_f64(1, &[1.0], ReduceOp::Sum)?;
            if comm.rank() == 1 {
                assert_eq!(at_root, vec![4.0]);
            } else {
                assert!(at_root.is_empty());
            }
            let i = comm.allreduce_i64(&[-(comm.rank() as i64)], ReduceOp::Min)?;
            assert_eq!(i, vec![-3]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn exscan_prefix_sums() {
        run_spmd(4, |comm| {
            let got = comm.exscan_u64((comm.rank() + 1) as u64)?;
            // Values 1,2,3,4 → exclusive prefix 0,1,3,6.
            let expected = [0u64, 1, 3, 6][comm.rank()];
            assert_eq!(got, expected);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn scan_inclusive_prefix() {
        run_spmd(4, |comm| {
            let got = comm.scan_u64(&[comm.rank() as u64 + 1, 1], ReduceOp::Sum)?;
            // Values 1,2,3,4 → inclusive prefixes 1,3,6,10; second slot counts ranks.
            let expected = [1u64, 3, 6, 10][comm.rank()];
            assert_eq!(got, vec![expected, comm.rank() as u64 + 1]);
            let m = comm.scan_u64(&[10 - comm.rank() as u64], ReduceOp::Min)?;
            assert_eq!(m, vec![10 - comm.rank() as u64]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn gatherv_concatenates_with_counts() {
        run_spmd(3, |comm| {
            let data = vec![comm.rank() as u8; comm.rank()];
            let (all, counts) = comm.gatherv_bytes(0, data)?;
            if comm.rank() == 0 {
                assert_eq!(counts, vec![0, 1, 2]);
                assert_eq!(all, vec![1, 2, 2]);
            } else {
                assert!(all.is_empty());
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn typed_bcast() {
        run_spmd(2, |comm| {
            let data = if comm.rank() == 0 { Some(vec![1u64, 2, 3]) } else { None };
            let got = comm.bcast_vec::<u64>(0, data.as_deref())?;
            assert_eq!(got, vec![1, 2, 3]);
            Ok(())
        })
        .unwrap();
    }
}
