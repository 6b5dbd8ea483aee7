//! The serial DRX library: one process, one extendible array file pair
//! (`name.xmd` + `name.xta`) on a (parallel or POSIX-style) file system.
//!
//! "Like HDF5, DRX-MP has a serial processing counterpart library called
//! simply DRX" (paper §I). The serial library is also the reference
//! implementation the parallel paths are tested against, and the tool a
//! single writer uses to initialize a principal array before parallel
//! processing (§IV-B: "the principal array … can be initialized either from
//! a single serial process or from a parallel program").

use crate::error::{MpError, Result};
use crate::read::ChunkPlan;
use crate::store::ArrayStore;
use drx_core::{dtype, ArrayMeta, Element, InitialLayout, Layout, Region};
use drx_pfs::{Pfs, PfsFile};

/// A disk-resident extendible array accessed from a single process.
///
/// ```
/// use drx_mp::DrxFile;
/// use drx_pfs::Pfs;
/// use drx_core::{Layout, Region};
///
/// let pfs = Pfs::memory(2, 1024).unwrap();
/// let mut a: DrxFile<f64> = DrxFile::create(&pfs, "demo", &[2, 2], &[4, 4]).unwrap();
/// a.set(&[3, 3], 1.5).unwrap();
/// a.extend(1, 4).unwrap(); // grow dimension 1: append-only
/// assert_eq!(a.get(&[3, 3]).unwrap(), 1.5);
/// let region = Region::new(vec![2, 2], vec![4, 6]).unwrap();
/// assert_eq!(a.read_region(&region, Layout::Fortran).unwrap().len(), 8);
/// ```
pub struct DrxFile<T: Element> {
    meta: ArrayMeta,
    store: ArrayStore,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Element> DrxFile<T> {
    /// Create a new array file pair. The payload is sized for the initial
    /// bounds and reads as `T::default()` until written.
    pub fn create(
        pfs: &Pfs,
        base: &str,
        chunk_shape: &[usize],
        initial_bounds: &[usize],
    ) -> Result<Self> {
        Self::create_with_layout(pfs, base, chunk_shape, initial_bounds, InitialLayout::RowMajor)
    }

    /// Create with an explicit initial chunk layout — row-major or symmetric
    /// linear shell order (paper §IV-B: "chunks laid out either in row-major
    /// order or in the symmetric linear shell order").
    pub fn create_with_layout(
        pfs: &Pfs,
        base: &str,
        chunk_shape: &[usize],
        initial_bounds: &[usize],
        layout: InitialLayout,
    ) -> Result<Self> {
        let meta = ArrayMeta::new_with_layout(T::DTYPE, chunk_shape, initial_bounds, layout)?;
        let store = ArrayStore::create(pfs, base, &meta)?;
        Self::from_store((store, meta))
    }

    /// Open an existing array file pair; the stored element type must match
    /// `T`.
    pub fn open(pfs: &Pfs, base: &str) -> Result<Self> {
        Self::from_store(ArrayStore::open(pfs, base)?)
    }

    /// Wrap an opened or adopted store and its decoded metadata; the stored
    /// element type must match `T`.
    pub fn from_store((store, meta): (ArrayStore, ArrayMeta)) -> Result<Self> {
        if meta.dtype() != T::DTYPE {
            return Err(MpError::DTypeMismatch { file: meta.dtype(), requested: T::DTYPE });
        }
        Ok(DrxFile { meta, store, _marker: std::marker::PhantomData })
    }

    /// Delete both files of an array.
    pub fn delete(pfs: &Pfs, base: &str) -> Result<()> {
        ArrayStore::delete(pfs, base)
    }

    pub fn meta(&self) -> &ArrayMeta {
        &self.meta
    }

    /// The raw `.xta` payload file handle (used by the Mpool cache layer).
    pub fn payload_file(&self) -> &PfsFile {
        self.store.payload()
    }

    /// Instantaneous element bounds.
    pub fn bounds(&self) -> &[usize] {
        self.meta.element_bounds()
    }

    /// Commit the metadata through [`ArrayStore::commit`]. `create` and
    /// [`DrxFile::extend`] already do, so the `.xmd` on disk never lags the
    /// handle.
    pub fn sync_meta(&self) -> Result<()> {
        self.store.commit(&self.meta)
    }

    /// Extend dimension `dim` by `by` elements: appends zeroed chunks to the
    /// payload (no reorganization — the defining property) and commits the
    /// metadata.
    pub fn extend(&mut self, dim: usize, by: usize) -> Result<()> {
        self.meta.extend(dim, by)?;
        self.sync_meta()
    }

    /// Read one element.
    pub fn get(&self, index: &[usize]) -> Result<T> {
        self.store.get(self.meta.element_byte_offset(index)?)
    }

    /// Write one element.
    pub fn set(&mut self, index: &[usize], value: T) -> Result<()> {
        self.store.set(self.meta.element_byte_offset(index)?, value)
    }

    /// Read a rectilinear element region into a dense buffer with the
    /// requested memory layout. Chunks are fetched in increasing file
    /// address order (sequential scan, §II-A), one bounded staging window
    /// at a time, and elements are scattered to their in-memory positions —
    /// the on-the-fly transposition of §II-A.
    pub fn read_region(&self, region: &Region, layout: Layout) -> Result<Vec<T>> {
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        plan.read_windowed(self.store.payload(), self.meta.chunking(), region, layout)
    }

    /// Write a dense buffer (in the given layout) into an element region,
    /// one bounded staging window at a time. Partially covered chunks are
    /// read-modified-written; fully covered chunks are written directly.
    pub fn write_region(&mut self, region: &Region, layout: Layout, data: &[T]) -> Result<()> {
        let plan = ChunkPlan::for_region(&self.meta, region)?;
        plan.write_windowed(self.store.payload(), self.meta.chunking(), region, layout, data)
    }

    /// Read the whole valid array as a dense buffer.
    pub fn read_full(&self, layout: Layout) -> Result<Vec<T>> {
        self.read_region(&self.meta.element_region(), layout)
    }

    /// Write the whole valid array from a dense buffer.
    pub fn write_full(&mut self, layout: Layout, data: &[T]) -> Result<()> {
        let region = self.meta.element_region();
        self.write_region(&region, layout, data)
    }

    /// Fill every valid element from a function of its index
    /// (initialization helper; one region write).
    pub fn fill_with(&mut self, mut f: impl FnMut(&[usize]) -> T) -> Result<()> {
        let region = self.meta.element_region();
        let data: Vec<T> = region.iter().map(|idx| f(&idx)).collect();
        self.write_region(&region, Layout::C, &data)
    }

    /// Read a raw chunk's bytes by linear address (used by tests and
    /// baselines comparisons).
    pub fn read_chunk_raw(&self, addr: u64) -> Result<Vec<T>> {
        let cb = self.meta.chunk_bytes();
        let bytes = self.store.payload().read_vec(addr * cb, cb as usize)?;
        Ok(dtype::decode_slice(&bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs() -> Pfs {
        Pfs::memory(4, 256).unwrap()
    }

    fn tag(idx: &[usize]) -> i64 {
        idx.iter().fold(7i64, |a, &i| a * 31 + i as i64)
    }

    #[test]
    fn create_open_round_trip() {
        let fs = pfs();
        {
            let mut f: DrxFile<i64> = DrxFile::create(&fs, "arr", &[2, 3], &[4, 5]).unwrap();
            f.set(&[3, 4], 99).unwrap();
        }
        let f: DrxFile<i64> = DrxFile::open(&fs, "arr").unwrap();
        assert_eq!(f.bounds(), &[4, 5]);
        assert_eq!(f.get(&[3, 4]).unwrap(), 99);
        assert_eq!(f.get(&[0, 0]).unwrap(), 0);
        // Wrong element type is rejected.
        assert!(matches!(DrxFile::<f64>::open(&fs, "arr"), Err(MpError::DTypeMismatch { .. })));
        DrxFile::<i64>::delete(&fs, "arr").unwrap();
        assert!(DrxFile::<i64>::open(&fs, "arr").is_err());
    }

    #[test]
    fn extension_preserves_data_and_appends_only() {
        let fs = pfs();
        let mut f: DrxFile<i64> = DrxFile::create(&fs, "a", &[2, 2], &[4, 4]).unwrap();
        f.fill_with(tag).unwrap();
        let payload_before = f.meta().payload_bytes();
        f.extend(1, 4).unwrap();
        f.extend(0, 2).unwrap();
        assert!(f.meta().payload_bytes() > payload_before);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(f.get(&[i, j]).unwrap(), tag(&[i, j]));
            }
        }
        // New cells are default.
        assert_eq!(f.get(&[5, 7]).unwrap(), 0);
        // Reopen sees the extended state.
        drop(f);
        let f: DrxFile<i64> = DrxFile::open(&fs, "a").unwrap();
        assert_eq!(f.bounds(), &[6, 8]);
        assert_eq!(f.get(&[2, 3]).unwrap(), tag(&[2, 3]));
    }

    #[test]
    fn read_region_matches_in_memory_reference() {
        let fs = pfs();
        let mut f: DrxFile<i64> = DrxFile::create(&fs, "a", &[2, 3], &[7, 8]).unwrap();
        let mut reference: drx_core::ExtendibleArray<i64> =
            drx_core::ExtendibleArray::new(&[2, 3], &[7, 8]).unwrap();
        f.fill_with(tag).unwrap();
        reference.fill_with(tag).unwrap();
        for (lo, hi) in
            [(vec![0, 0], vec![7, 8]), (vec![1, 2], vec![5, 7]), (vec![6, 0], vec![7, 8])]
        {
            let region = Region::new(lo, hi).unwrap();
            for layout in [Layout::C, Layout::Fortran] {
                assert_eq!(
                    f.read_region(&region, layout).unwrap(),
                    reference.read_region(&region, layout).unwrap()
                );
            }
        }
    }

    #[test]
    fn write_region_partial_chunks_preserve_neighbours() {
        let fs = pfs();
        let mut f: DrxFile<i64> = DrxFile::create(&fs, "a", &[4, 4], &[8, 8]).unwrap();
        f.fill_with(tag).unwrap();
        // Write a region that covers parts of all four chunks.
        let region = Region::new(vec![2, 2], vec![6, 6]).unwrap();
        let data = vec![-1i64; 16];
        f.write_region(&region, Layout::C, &data).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                let expect = if region.contains(&[i, j]) { -1 } else { tag(&[i, j]) };
                assert_eq!(f.get(&[i, j]).unwrap(), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn fortran_order_write_read() {
        let fs = pfs();
        let mut f: DrxFile<f64> = DrxFile::create(&fs, "a", &[2, 2], &[3, 4]).unwrap();
        let region = f.meta().element_region();
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        f.write_region(&region, Layout::Fortran, &data).unwrap();
        assert_eq!(f.read_region(&region, Layout::Fortran).unwrap(), data);
        // Element (i,j) = data[j*3 + i] in Fortran order of a 3×4 array.
        assert_eq!(f.get(&[1, 2]).unwrap(), 7.0);
        let c = f.read_region(&region, Layout::C).unwrap();
        assert_eq!(c[4 + 2], 7.0);
    }

    #[test]
    fn region_validation() {
        let fs = pfs();
        let f: DrxFile<i32> = DrxFile::create(&fs, "a", &[2, 2], &[4, 4]).unwrap();
        assert!(f.read_region(&Region::new(vec![0, 0], vec![5, 4]).unwrap(), Layout::C).is_err());
        assert!(f.read_region(&Region::new(vec![0], vec![2]).unwrap(), Layout::C).is_err());
        assert!(f.get(&[4, 0]).is_err());
    }

    #[test]
    fn buffer_size_validation() {
        let fs = pfs();
        let mut f: DrxFile<i32> = DrxFile::create(&fs, "a", &[2, 2], &[4, 4]).unwrap();
        let region = Region::new(vec![0, 0], vec![2, 2]).unwrap();
        assert!(f.write_region(&region, Layout::C, &[1, 2, 3]).is_err());
    }

    #[test]
    fn shell_order_files_read_identically_to_row_major() {
        let fs = pfs();
        let mut rm: DrxFile<i64> = DrxFile::create(&fs, "rm", &[2, 2], &[8, 8]).unwrap();
        let mut sh: DrxFile<i64> =
            DrxFile::create_with_layout(&fs, "sh", &[2, 2], &[8, 8], InitialLayout::ShellOrder)
                .unwrap();
        rm.fill_with(tag).unwrap();
        sh.fill_with(tag).unwrap();
        // Logical contents identical; physical chunk order differs.
        let full = Region::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_eq!(
            rm.read_region(&full, Layout::C).unwrap(),
            sh.read_region(&full, Layout::C).unwrap()
        );
        assert_ne!(
            rm.meta().grid().address(&[1, 0]).unwrap(),
            sh.meta().grid().address(&[1, 0]).unwrap()
        );
        // Both extend without moving existing chunks; reopen preserves the
        // shell history through the codec.
        sh.extend(0, 4).unwrap();
        drop(sh);
        let sh: DrxFile<i64> = DrxFile::open(&fs, "sh").unwrap();
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(sh.get(&[i, j]).unwrap(), tag(&[i, j]), "({i},{j})");
            }
        }
    }

    #[test]
    fn complex_data_round_trips() {
        use drx_core::Complex64;
        let fs = pfs();
        let mut f: DrxFile<Complex64> = DrxFile::create(&fs, "c", &[2], &[5]).unwrap();
        f.set(&[3], Complex64::new(1.5, -2.5)).unwrap();
        assert_eq!(f.get(&[3]).unwrap(), Complex64::new(1.5, -2.5));
    }
}
