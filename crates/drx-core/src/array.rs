//! In-memory dense extendible array — the memory-resident counterpart of the
//! out-of-core array (the paper's serial DRX library keeps "memory resident
//! extendible arrays" alongside conventional ones, §I).
//!
//! Chunks are stored in a `Vec` indexed by their linear chunk address, which
//! mirrors the append-only `.xta` payload file exactly: extension pushes new
//! chunks at the end, and `F*` locates them. This type is also the reference
//! model that the out-of-core and parallel paths are tested against.

use crate::dtype::Element;
use crate::error::{DrxError, Result};
use crate::index::Region;
use crate::meta::ArrayMeta;
use crate::order::Layout;

/// A dense extendible array held in memory, chunked exactly like its
/// out-of-core counterpart.
#[derive(Debug, Clone)]
pub struct ExtendibleArray<T: Element> {
    meta: ArrayMeta,
    /// One buffer per chunk, indexed by linear chunk address.
    chunks: Vec<Box<[T]>>,
}

impl<T: Element> ExtendibleArray<T> {
    /// Create a new array with the given chunk shape and initial element
    /// bounds; all elements start at `T::default()`.
    pub fn new(chunk_shape: &[usize], initial_bounds: &[usize]) -> Result<Self> {
        let meta = ArrayMeta::new(T::DTYPE, chunk_shape, initial_bounds)?;
        let per_chunk = meta.chunking().chunk_elems() as usize;
        let chunks = (0..meta.total_chunks())
            .map(|_| vec![T::default(); per_chunk].into_boxed_slice())
            .collect();
        Ok(ExtendibleArray { meta, chunks })
    }

    /// Metadata (bounds, chunking, growth history).
    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    pub fn rank(&self) -> usize {
        self.meta.rank()
    }

    /// Instantaneous element bounds.
    pub fn bounds(&self) -> &[usize] {
        self.meta.element_bounds()
    }

    /// Number of valid elements.
    pub fn len(&self) -> u64 {
        self.meta.element_count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extend dimension `dim` by `by` elements; newly exposed elements read
    /// as `T::default()`. Existing elements keep their values *and* their
    /// chunk addresses (the defining property of the scheme).
    pub fn extend(&mut self, dim: usize, by: usize) -> Result<()> {
        let outcome = self.meta.extend(dim, by)?;
        let per_chunk = self.meta.chunking().chunk_elems() as usize;
        for _ in 0..outcome.new_chunk_count {
            self.chunks.push(vec![T::default(); per_chunk].into_boxed_slice());
        }
        debug_assert_eq!(self.chunks.len() as u64, self.meta.total_chunks());
        Ok(())
    }

    /// Read one element.
    pub fn get(&self, index: &[usize]) -> Result<T> {
        let (addr, off) = self.meta.locate_element(index)?;
        Ok(self.chunks[addr as usize][off as usize])
    }

    /// Write one element.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        let (addr, off) = self.meta.locate_element(index)?;
        self.chunks[addr as usize][off as usize] = value;
        Ok(())
    }

    /// Add to one element (the `MPI_Accumulate` counterpart).
    pub fn accumulate(&mut self, index: &[usize], value: T) -> Result<()> {
        let (addr, off) = self.meta.locate_element(index)?;
        let slot = &mut self.chunks[addr as usize][off as usize];
        *slot = slot.acc(value);
        Ok(())
    }

    /// Initialize every valid element from a function of its index.
    pub fn fill_with(&mut self, mut f: impl FnMut(&[usize]) -> T) -> Result<()> {
        for idx in self.meta.element_region().iter() {
            let (addr, off) = self.meta.locate_element(&idx)?;
            self.chunks[addr as usize][off as usize] = f(&idx);
        }
        Ok(())
    }

    /// Read a rectilinear element region into a dense buffer with the given
    /// memory layout — the in-core model of the paper's "specify the
    /// sub-arrays in memory to be in conventional array order".
    pub fn read_region(&self, region: &Region, layout: Layout) -> Result<Vec<T>> {
        self.meta.check_region(region)?;
        let extents = region.extents();
        let mut out = vec![T::default(); region.volume() as usize];
        let strides = layout.strides(&extents);
        for idx in region.iter() {
            let (addr, off) = self.meta.locate_element(&idx)?;
            let rel: Vec<usize> = idx.iter().zip(region.lo()).map(|(&i, &l)| i - l).collect();
            let o = crate::index::offset_with_strides(&rel, &strides) as usize;
            out[o] = self.chunks[addr as usize][off as usize];
        }
        Ok(out)
    }

    /// Write a dense buffer (in the given layout) into a rectilinear element
    /// region.
    pub fn write_region(&mut self, region: &Region, layout: Layout, data: &[T]) -> Result<()> {
        self.meta.check_region(region)?;
        let n = region.volume() as usize;
        if data.len() != n {
            return Err(DrxError::BufferSize { expected: n, got: data.len() });
        }
        let extents = region.extents();
        let strides = layout.strides(&extents);
        for idx in region.iter() {
            let (addr, off) = self.meta.locate_element(&idx)?;
            let rel: Vec<usize> = idx.iter().zip(region.lo()).map(|(&i, &l)| i - l).collect();
            let o = crate::index::offset_with_strides(&rel, &strides) as usize;
            self.chunks[addr as usize][off as usize] = data[o];
        }
        Ok(())
    }

    /// The whole array as a dense buffer in the given layout.
    pub fn to_dense(&self, layout: Layout) -> Result<Vec<T>> {
        self.read_region(&self.meta.element_region(), layout)
    }

    /// Raw access to a chunk's buffer by linear address (used by the file
    /// writer and by tests).
    pub fn chunk_data(&self, addr: u64) -> Result<&[T]> {
        self.chunks
            .get(addr as usize)
            .map(|b| &b[..])
            .ok_or(DrxError::AddressOutOfBounds { address: addr, total: self.chunks.len() as u64 })
    }

    /// Mutable raw access to a chunk's buffer by linear address.
    pub fn chunk_data_mut(&mut self, addr: u64) -> Result<&mut [T]> {
        let total = self.chunks.len() as u64;
        self.chunks
            .get_mut(addr as usize)
            .map(|b| &mut b[..])
            .ok_or(DrxError::AddressOutOfBounds { address: addr, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::relayout;

    fn tagged(idx: &[usize]) -> i64 {
        // An injective tag of an index, stable across extensions.
        idx.iter().fold(0i64, |acc, &i| acc * 1000 + i as i64 + 1)
    }

    #[test]
    fn get_set_round_trip() {
        let mut a: ExtendibleArray<i64> = ExtendibleArray::new(&[2, 3], &[4, 5]).unwrap();
        a.fill_with(tagged).unwrap();
        for idx in a.meta().element_region().iter() {
            assert_eq!(a.get(&idx).unwrap(), tagged(&idx));
        }
        a.set(&[3, 4], -7).unwrap();
        assert_eq!(a.get(&[3, 4]).unwrap(), -7);
        assert!(a.get(&[4, 0]).is_err());
    }

    #[test]
    fn extension_preserves_existing_values() {
        let mut a: ExtendibleArray<i64> = ExtendibleArray::new(&[2, 2], &[3, 3]).unwrap();
        a.fill_with(tagged).unwrap();
        a.extend(1, 4).unwrap();
        a.extend(0, 2).unwrap();
        a.extend(1, 1).unwrap();
        assert_eq!(a.bounds(), &[5, 8]);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(&[i, j]).unwrap(), tagged(&[i, j]), "({i},{j}) moved");
            }
        }
        // New cells read as default.
        assert_eq!(a.get(&[4, 7]).unwrap(), 0);
    }

    #[test]
    fn accumulate_adds() {
        let mut a: ExtendibleArray<f64> = ExtendibleArray::new(&[2], &[4]).unwrap();
        a.accumulate(&[2], 1.5).unwrap();
        a.accumulate(&[2], 2.0).unwrap();
        assert_eq!(a.get(&[2]).unwrap(), 3.5);
    }

    #[test]
    fn read_region_in_both_layouts() {
        let mut a: ExtendibleArray<i64> = ExtendibleArray::new(&[2, 3], &[4, 6]).unwrap();
        a.fill_with(|i| (i[0] * 10 + i[1]) as i64).unwrap();
        let region = Region::new(vec![1, 2], vec![3, 5]).unwrap(); // 2×3
        let c = a.read_region(&region, Layout::C).unwrap();
        assert_eq!(c, vec![12, 13, 14, 22, 23, 24]);
        let f = a.read_region(&region, Layout::Fortran).unwrap();
        assert_eq!(f, vec![12, 22, 13, 23, 14, 24]);
        // The two layouts are relayouts of each other.
        assert_eq!(relayout(&c, &[2, 3], Layout::C, Layout::Fortran).unwrap(), f);
    }

    #[test]
    fn write_region_round_trips_against_read() {
        let mut a: ExtendibleArray<i64> = ExtendibleArray::new(&[3, 2], &[5, 5]).unwrap();
        let region = Region::new(vec![0, 1], vec![4, 4]).unwrap(); // 4×3
        let data: Vec<i64> = (0..12).collect();
        a.write_region(&region, Layout::Fortran, &data).unwrap();
        assert_eq!(a.read_region(&region, Layout::Fortran).unwrap(), data);
        // Cells outside the region stay default.
        assert_eq!(a.get(&[0, 0]).unwrap(), 0);
        assert_eq!(a.get(&[4, 4]).unwrap(), 0);
        // Wrong buffer size is rejected.
        assert!(a.write_region(&region, Layout::C, &data[..5]).is_err());
    }

    #[test]
    fn region_bounds_are_validated() {
        let a: ExtendibleArray<i32> = ExtendibleArray::new(&[2, 2], &[4, 4]).unwrap();
        let too_big = Region::new(vec![0, 0], vec![5, 4]).unwrap();
        assert!(a.read_region(&too_big, Layout::C).is_err());
        let wrong_rank = Region::new(vec![0], vec![2]).unwrap();
        assert!(a.read_region(&wrong_rank, Layout::C).is_err());
    }

    #[test]
    fn to_dense_matches_fill_order() {
        let mut a: ExtendibleArray<i32> = ExtendibleArray::new(&[2, 2], &[2, 3]).unwrap();
        a.fill_with(|i| (i[0] * 3 + i[1]) as i32).unwrap();
        assert_eq!(a.to_dense(Layout::C).unwrap(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(a.to_dense(Layout::Fortran).unwrap(), vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn chunk_data_access() {
        let mut a: ExtendibleArray<i32> = ExtendibleArray::new(&[2, 2], &[2, 2]).unwrap();
        a.set(&[1, 1], 9).unwrap();
        let data = a.chunk_data(0).unwrap();
        assert_eq!(data.len(), 4);
        assert_eq!(data[3], 9); // row-major within the chunk
        assert!(a.chunk_data(1).is_err());
    }

    #[test]
    fn complex_elements_work() {
        use crate::dtype::Complex64;
        let mut a: ExtendibleArray<Complex64> = ExtendibleArray::new(&[2], &[3]).unwrap();
        a.set(&[1], Complex64::new(1.0, 2.0)).unwrap();
        a.accumulate(&[1], Complex64::new(0.5, -1.0)).unwrap();
        assert_eq!(a.get(&[1]).unwrap(), Complex64::new(1.5, 1.0));
    }
}
