//! Derived datatypes — the file-view vocabulary of MPI-IO.
//!
//! The paper's code listing builds its file views with
//! `MPI_Type_contiguous(ChunkSize, MPI_DOUBLE)` followed by
//! `MPI_Type_indexed(noOfChunks, blocklens, map, chunk, &filetype)`. A
//! [`Datatype`] here is the flattened form every such construction reduces
//! to: an ordered list of `(byte offset, byte length)` extents relative to
//! the type's origin, plus the *extent* (span) used when the type tiles a
//! file view repeatedly.

use crate::error::{MsgError, Result};

/// A flattened derived datatype.
///
/// ```
/// use drx_msg::Datatype;
///
/// // The paper's collective-read view: 6-double chunks at the addresses of
/// // process P1's zone, {6, 7, 8, 12, 13, 14}.
/// let chunk = Datatype::contiguous(48);
/// let ft = Datatype::indexed(&[1; 6], &[6, 7, 8, 12, 13, 14], &chunk).unwrap();
/// assert_eq!(ft.size(), 6 * 48);
/// // Adjacent chunks coalesce into two contiguous file extents.
/// assert_eq!(ft.extents(), &[(288, 144), (576, 144)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datatype {
    /// `(offset, len)` byte extents in strictly increasing, non-overlapping
    /// offset order.
    extents: Vec<(u64, u64)>,
    /// The span the type covers when repeated (≥ end of the last extent).
    extent: u64,
}

impl Datatype {
    /// A contiguous run of `len` bytes.
    pub fn contiguous(len: u64) -> Self {
        if len == 0 {
            Datatype { extents: Vec::new(), extent: 0 }
        } else {
            Datatype { extents: vec![(0, len)], extent: len }
        }
    }

    /// `count` repetitions of `base` laid end to end
    /// (`MPI_Type_contiguous` over a derived base).
    pub fn repeated(base: &Datatype, count: usize) -> Self {
        let mut extents = Vec::new();
        push_items(&mut extents, 0, count, base);
        Datatype { extent: base.extent * count as u64, extents }
    }

    /// `MPI_Type_vector`: `count` blocks of `blocklen` base-items, block
    /// starts `stride` base-items apart.
    pub fn vector(count: usize, blocklen: usize, stride: usize, base: &Datatype) -> Result<Self> {
        if stride < blocklen {
            return Err(MsgError::BadDatatype(format!(
                "vector stride {stride} smaller than blocklen {blocklen}"
            )));
        }
        let mut extents = Vec::new();
        for b in 0..count as u64 {
            push_items(&mut extents, b * stride as u64 * base.extent, blocklen, base);
        }
        let extent = count as u64 * stride as u64 * base.extent;
        Ok(Datatype { extents, extent })
    }

    /// `MPI_Type_indexed`: block `i` has `blocklens[i]` base-items starting
    /// `displs[i]` base-items from the origin. This is the constructor the
    /// paper's collective-read listing uses (with the chunk type as base and
    /// the chunk address map as displacements).
    ///
    /// Displacements must be given in increasing order (MPI permits any
    /// order for file views only when monotonic; we enforce the same rule).
    pub fn indexed(blocklens: &[usize], displs: &[usize], base: &Datatype) -> Result<Self> {
        if blocklens.len() != displs.len() {
            return Err(MsgError::BadDatatype(format!(
                "indexed: {} blocklens vs {} displacements",
                blocklens.len(),
                displs.len()
            )));
        }
        let mut extents = Vec::new();
        let mut max_end = 0u64;
        let mut prev_end: Option<u64> = None;
        for (&bl, &d) in blocklens.iter().zip(displs) {
            let start = d as u64 * base.extent;
            if let Some(pe) = prev_end {
                if start < pe {
                    return Err(MsgError::BadDatatype(
                        "indexed displacements must be monotonically increasing".into(),
                    ));
                }
            }
            push_items(&mut extents, start, bl, base);
            let end = start + bl as u64 * base.extent;
            prev_end = Some(end);
            max_end = max_end.max(end);
        }
        Ok(Datatype { extents, extent: max_end })
    }

    /// `MPI_Type_create_subarray` (C order): the byte extents of a
    /// rectilinear sub-array `lo..hi` inside a row-major array of shape
    /// `shape` with `elem_size`-byte elements. Rows of the sub-array along
    /// the last dimension become contiguous runs.
    pub fn subarray(shape: &[usize], lo: &[usize], hi: &[usize], elem_size: usize) -> Result<Self> {
        let k = shape.len();
        if lo.len() != k || hi.len() != k || k == 0 {
            return Err(MsgError::BadDatatype("subarray rank mismatch".into()));
        }
        for j in 0..k {
            if lo[j] > hi[j] || hi[j] > shape[j] {
                return Err(MsgError::BadDatatype(format!(
                    "subarray bounds {}..{} invalid for extent {} in dim {j}",
                    lo[j], hi[j], shape[j]
                )));
            }
        }
        // Row-major strides in elements.
        let mut strides = vec![1u64; k];
        for j in (0..k - 1).rev() {
            strides[j] = strides[j + 1] * shape[j + 1] as u64;
        }
        let full: u64 = shape.iter().map(|&n| n as u64).product();
        let mut extents = Vec::new();
        let run = (hi[k - 1] - lo[k - 1]) as u64 * elem_size as u64;
        let empty = lo.iter().zip(hi).any(|(&l, &h)| l == h);
        if run > 0 && !empty {
            // Odometer over all dims but the last; each position is one
            // contiguous row along the last dimension.
            let mut idx: Vec<usize> = lo[..k - 1].to_vec();
            'outer: loop {
                let mut off = lo[k - 1] as u64 * strides[k - 1];
                for j in 0..k - 1 {
                    off += idx[j] as u64 * strides[j];
                }
                push_coalescing(&mut extents, off * elem_size as u64, run);
                // Increment the odometer (last of the leading dims fastest).
                let mut j = k - 1;
                loop {
                    if j == 0 {
                        break 'outer; // rank 1: single row, or odometer done
                    }
                    j -= 1;
                    idx[j] += 1;
                    if idx[j] < hi[j] {
                        break;
                    }
                    idx[j] = lo[j];
                    if j == 0 {
                        break 'outer;
                    }
                }
            }
        }
        Ok(Datatype { extents, extent: full * elem_size as u64 })
    }

    /// The flattened `(offset, len)` extents.
    pub fn extents(&self) -> &[(u64, u64)] {
        &self.extents
    }

    /// Total data bytes the type selects (sum of extent lengths).
    pub fn size(&self) -> u64 {
        self.extents.iter().map(|&(_, l)| l).sum()
    }

    /// The span of one repetition.
    pub fn extent(&self) -> u64 {
        self.extent
    }

    /// Override the extent (MPI's resized type) — needed when tiling with
    /// gaps at the end.
    pub fn resized(mut self, extent: u64) -> Result<Self> {
        let end = self.extents.last().map(|&(o, l)| o + l).unwrap_or(0);
        if extent < end {
            return Err(MsgError::BadDatatype(format!(
                "resized extent {extent} smaller than data end {end}"
            )));
        }
        self.extent = extent;
        Ok(self)
    }

    /// Map a logical data offset (position within the *selected* bytes,
    /// tiling the type repeatedly) to an absolute byte offset. Used by the
    /// I/O layer to translate buffer positions through a file view.
    pub fn absolute_ranges(&self, data_offset: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        if len == 0 || self.extents.is_empty() {
            return out;
        }
        let tile_data = self.size();
        let mut remaining = len;
        let mut pos = data_offset;
        while remaining > 0 {
            let tile = pos / tile_data;
            let mut within = pos % tile_data;
            let tile_base = tile * self.extent;
            for &(off, l) in &self.extents {
                if within >= l {
                    within -= l;
                    continue;
                }
                let avail = l - within;
                let take = avail.min(remaining);
                let abs = tile_base + off + within;
                match out.last_mut() {
                    Some(last) if last.0 + last.1 == abs => last.1 += take,
                    _ => out.push((abs, take)),
                }
                remaining -= take;
                pos += take;
                within = 0;
                if remaining == 0 {
                    break;
                }
            }
        }
        out
    }
}

/// Append `count` consecutive items of `base` starting at byte `start`.
/// A dense base (one extent spanning its whole extent) makes the items one
/// run, pushed at once; any other base is expanded item by item.
fn push_items(extents: &mut Vec<(u64, u64)>, start: u64, count: usize, base: &Datatype) {
    if base.extents == [(0, base.extent)] {
        push_coalescing(extents, start, count as u64 * base.extent);
        return;
    }
    for i in 0..count as u64 {
        for &(off, len) in &base.extents {
            push_coalescing(extents, start + i * base.extent + off, len);
        }
    }
}

fn push_coalescing(extents: &mut Vec<(u64, u64)>, off: u64, len: u64) {
    if len == 0 {
        return;
    }
    match extents.last_mut() {
        Some(last) if last.0 + last.1 == off => last.1 += len,
        _ => extents.push((off, len)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_and_repeated() {
        let c = Datatype::contiguous(8);
        assert_eq!(c.extents(), &[(0, 8)]);
        assert_eq!(c.size(), 8);
        let r = Datatype::repeated(&c, 3);
        // Adjacent repetitions coalesce into one run.
        assert_eq!(r.extents(), &[(0, 24)]);
        assert_eq!(r.extent(), 24);
    }

    #[test]
    fn vector_strided_blocks() {
        let base = Datatype::contiguous(4);
        let v = Datatype::vector(3, 2, 5, &base).unwrap();
        // Blocks of 2 items every 5 items of 4 bytes: offsets 0, 20, 40.
        assert_eq!(v.extents(), &[(0, 8), (20, 8), (40, 8)]);
        assert_eq!(v.size(), 24);
        assert_eq!(v.extent(), 60);
        assert!(Datatype::vector(2, 3, 2, &base).is_err());
    }

    #[test]
    fn indexed_mirrors_paper_listing() {
        // The paper's rank-1 view: chunks {6,7,8,12,13,14} of 6 doubles.
        let chunk = Datatype::contiguous(48);
        let displs = [6usize, 7, 8, 12, 13, 14];
        let lens = [1usize; 6];
        let ft = Datatype::indexed(&lens, &displs, &chunk).unwrap();
        // 6,7,8 coalesce; 12,13,14 coalesce.
        assert_eq!(ft.extents(), &[(288, 144), (576, 144)]);
        assert_eq!(ft.size(), 288);
        assert_eq!(ft.extent(), 720);
    }

    #[test]
    fn indexed_rejects_non_monotonic_and_ragged() {
        let base = Datatype::contiguous(1);
        assert!(Datatype::indexed(&[1, 1], &[5, 3], &base).is_err());
        assert!(Datatype::indexed(&[1], &[1, 2], &base).is_err());
    }

    #[test]
    fn subarray_2d() {
        // 4×6 array of 8-byte elements; sub-array rows 1..3, cols 2..5.
        let t = Datatype::subarray(&[4, 6], &[1, 2], &[3, 5], 8).unwrap();
        assert_eq!(t.extents(), &[(8 * 8, 24), (14 * 8, 24)]);
        assert_eq!(t.size(), 48);
        assert_eq!(t.extent(), 4 * 6 * 8);
    }

    #[test]
    fn subarray_full_array_is_one_run() {
        let t = Datatype::subarray(&[3, 4], &[0, 0], &[3, 4], 4).unwrap();
        assert_eq!(t.extents(), &[(0, 48)]);
    }

    #[test]
    fn subarray_3d_and_errors() {
        let t = Datatype::subarray(&[2, 3, 4], &[0, 1, 1], &[2, 3, 3], 1).unwrap();
        // Rows: (i, j, 1..3) for i in 0..2, j in 1..3 → offsets 5,9,17,21 len 2.
        assert_eq!(t.extents(), &[(5, 2), (9, 2), (17, 2), (21, 2)]);
        assert!(Datatype::subarray(&[2, 2], &[0], &[2], 1).is_err());
        assert!(Datatype::subarray(&[2, 2], &[0, 1], &[0, 0], 1).is_err());
        assert!(Datatype::subarray(&[2, 2], &[0, 0], &[3, 2], 1).is_err());
    }

    #[test]
    fn empty_subarray_selects_nothing() {
        let t = Datatype::subarray(&[3, 3], &[1, 1], &[1, 3], 4).unwrap();
        assert_eq!(t.size(), 0);
        assert!(t.extents().is_empty());
    }

    #[test]
    fn absolute_ranges_within_one_tile() {
        let base = Datatype::contiguous(4);
        let ft = Datatype::indexed(&[1, 1], &[0, 3], &base).unwrap(); // extents (0,4),(12,4)
        assert_eq!(ft.absolute_ranges(0, 8), vec![(0, 4), (12, 4)]);
        assert_eq!(ft.absolute_ranges(2, 4), vec![(2, 2), (12, 2)]);
        assert_eq!(ft.absolute_ranges(4, 2), vec![(12, 2)]);
    }

    #[test]
    fn absolute_ranges_tile_repetition() {
        let ft = Datatype::contiguous(4).resized(10).unwrap();
        // Selected bytes: 0..4 then (tile 2) 10..14, 20..24 …
        assert_eq!(ft.absolute_ranges(0, 10), vec![(0, 4), (10, 4), (20, 2)]);
        assert_eq!(ft.absolute_ranges(6, 2), vec![(12, 2)]);
    }

    #[test]
    fn resized_validates() {
        let t = Datatype::contiguous(8);
        assert!(t.clone().resized(4).is_err());
        assert_eq!(t.resized(16).unwrap().extent(), 16);
    }
}
