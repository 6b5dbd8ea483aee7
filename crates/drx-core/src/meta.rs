//! Array metadata and the `.xmd` binary codec (paper §IV-A).
//!
//! "The meta-data file of the extendible multidimensional storage scheme
//! maintains a persistent copy of the content of the axial-vectors used in
//! the linear address calculation. Other relevant pieces of information that
//! are kept include the number of dimensions of the array, the data type,
//! values of the chunk shape, the instantaneous bounds of the array, the
//! number of chunks in the principal array file, etc."
//!
//! The on-disk format is a versioned little-endian record with a trailing
//! CRC-32, so truncated or corrupted metadata is detected instead of
//! producing garbage addresses.

use crate::axial::{AxialRecord, AxialVector};
use crate::chunk::Chunking;
use crate::dtype::DType;
use crate::error::{DrxError, Result, MAX_RANK};
use crate::index::{volume, Region};
use crate::mapping::ExtendibleShape;

/// Magic bytes at the start of every `.xmd` file.
pub const XMD_MAGIC: [u8; 4] = *b"DRXM";
/// Current format version.
pub const XMD_VERSION: u16 = 1;

/// Result of an element-level extension: which chunks (if any) the storage
/// layer must append to the `.xta` payload file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendOutcome {
    /// Linear address of the first newly allocated chunk, when chunks were
    /// allocated.
    pub first_new_chunk: Option<u64>,
    /// Number of chunks allocated by this extension (0 when the new element
    /// bound still fits in already-allocated edge chunks).
    pub new_chunk_count: u64,
}

/// How the *initial* allocation of the chunk grid is laid out on disk
/// (paper §IV-B: "written onto disk with chunks laid out either in
/// row-major order or in the symmetric linear shell order").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialLayout {
    /// One row-major segment covering the whole initial grid (the common
    /// case; later extensions still go anywhere).
    #[default]
    RowMajor,
    /// The initial grid is built by cyclic single-index extensions from a
    /// 1×…×1 grid — the symmetric-linear-shell growth pattern, recorded in
    /// the axial vectors like any other history. Subsequent reads and
    /// extensions are oblivious to the choice.
    ShellOrder,
}

/// Complete description of one extendible array: element type, chunk shape,
/// instantaneous element bounds, and the chunk-grid growth history.
///
/// This is the structure behind the paper's `DRXMDHdl` handle; DRX-MP
/// replicates it in every process when a file is opened (§IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMeta {
    dtype: DType,
    chunking: Chunking,
    /// Instantaneous bounds `N_i` in *elements* (may not be chunk-aligned).
    element_bounds: Vec<usize>,
    /// Growth history of the chunk grid; bounds are `⌈N_i / c_i⌉`.
    grid: ExtendibleShape,
}

impl ArrayMeta {
    /// Create metadata for a new array with the given chunk shape and
    /// initial element bounds (each ≥ 1).
    pub fn new(dtype: DType, chunk_shape: &[usize], initial_bounds: &[usize]) -> Result<Self> {
        Self::new_with_layout(dtype, chunk_shape, initial_bounds, InitialLayout::RowMajor)
    }

    /// Create metadata with an explicit initial chunk layout (§IV-B).
    pub fn new_with_layout(
        dtype: DType,
        chunk_shape: &[usize],
        initial_bounds: &[usize],
        layout: InitialLayout,
    ) -> Result<Self> {
        let chunking = Chunking::new(chunk_shape)?;
        if initial_bounds.len() != chunking.rank() {
            return Err(DrxError::RankMismatch {
                expected: chunking.rank(),
                got: initial_bounds.len(),
            });
        }
        if initial_bounds.contains(&0) {
            return Err(DrxError::ZeroExtent("initial element bound"));
        }
        let grid_bounds = chunking.grid_for(initial_bounds)?;
        let grid = match layout {
            InitialLayout::RowMajor => ExtendibleShape::new(&grid_bounds)?,
            InitialLayout::ShellOrder => {
                // Grow a 1×…×1 grid to the target by cyclic single-index
                // extensions — each round of the cycle is one shell.
                let mut g = ExtendibleShape::new(&vec![1; grid_bounds.len()])?;
                loop {
                    let mut grew = false;
                    for (dim, &target) in grid_bounds.iter().enumerate() {
                        if g.bounds()[dim] < target {
                            g.extend(dim, 1)?;
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                g
            }
        };
        Ok(ArrayMeta { dtype, chunking, element_bounds: initial_bounds.to_vec(), grid })
    }

    pub fn dtype(&self) -> DType {
        self.dtype
    }

    pub fn rank(&self) -> usize {
        self.chunking.rank()
    }

    pub fn chunking(&self) -> &Chunking {
        &self.chunking
    }

    /// Instantaneous element bounds `N_i`.
    pub fn element_bounds(&self) -> &[usize] {
        &self.element_bounds
    }

    /// The chunk-grid growth history (axial vectors live here).
    pub fn grid(&self) -> &ExtendibleShape {
        &self.grid
    }

    /// Number of valid elements, `∏ N_i`.
    pub fn element_count(&self) -> u64 {
        volume(&self.element_bounds)
    }

    /// Number of allocated chunks in the payload file.
    pub fn total_chunks(&self) -> u64 {
        self.grid.total_chunks()
    }

    /// Bytes per chunk in the payload file.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunking.chunk_elems() * self.dtype.size() as u64
    }

    /// Total payload file size in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.total_chunks() * self.chunk_bytes()
    }

    /// The valid element region `0..N_i` per dimension.
    pub fn element_region(&self) -> Region {
        Region::of_shape(&self.element_bounds).expect("bounds are a valid shape")
    }

    /// Extend dimension `dim` by `by` elements (paper §IV-B: "the array is
    /// expanded by extending any arbitrary dimension"). Allocates whole
    /// chunk-grid segments as needed; already-written chunks never move.
    pub fn extend(&mut self, dim: usize, by: usize) -> Result<ExtendOutcome> {
        if dim >= self.rank() {
            return Err(DrxError::Invalid(format!(
                "dimension {dim} out of range for rank {}",
                self.rank()
            )));
        }
        if by == 0 {
            return Err(DrxError::ZeroExtent("extension amount"));
        }
        let new_bound = self.element_bounds[dim] + by;
        let needed = new_bound.div_ceil(self.chunking.shape()[dim]);
        let have = self.grid.bounds()[dim];
        let outcome = if needed > have {
            let before = self.grid.total_chunks();
            let first = self.grid.extend(dim, needed - have)?;
            ExtendOutcome {
                first_new_chunk: Some(first),
                new_chunk_count: self.grid.total_chunks() - before,
            }
        } else {
            ExtendOutcome { first_new_chunk: None, new_chunk_count: 0 }
        };
        self.element_bounds[dim] = new_bound;
        Ok(outcome)
    }

    /// Check that `region` has the array's rank and lies within the element
    /// bounds — the one region validator every surface calls before it
    /// plans or copies.
    pub fn check_region(&self, region: &Region) -> Result<()> {
        if region.rank() != self.rank() {
            return Err(DrxError::RankMismatch { expected: self.rank(), got: region.rank() });
        }
        if region.hi().iter().zip(&self.element_bounds).any(|(&h, &n)| h > n) {
            return Err(DrxError::IndexOutOfBounds {
                index: region.hi().to_vec(),
                bounds: self.element_bounds.clone(),
            });
        }
        Ok(())
    }

    /// Locate an element: (linear chunk address, element offset inside the
    /// chunk). This composes `F*` on the chunk index with the trivial
    /// row-major offset within the chunk (§II-A).
    pub fn locate_element(&self, element: &[usize]) -> Result<(u64, u64)> {
        for (j, (&e, &n)) in element.iter().zip(&self.element_bounds).enumerate() {
            if e >= n {
                let _ = j;
                return Err(DrxError::IndexOutOfBounds {
                    index: element.to_vec(),
                    bounds: self.element_bounds.clone(),
                });
            }
        }
        let (chunk, off) = self.chunking.locate(element)?;
        let addr = self.grid.address(&chunk)?;
        Ok((addr, off))
    }

    /// Byte offset of an element in the `.xta` payload file.
    pub fn element_byte_offset(&self, element: &[usize]) -> Result<u64> {
        let (addr, off) = self.locate_element(element)?;
        Ok(addr * self.chunk_bytes() + off * self.dtype.size() as u64)
    }

    // ------------------------------------------------------------------
    // .xmd codec
    // ------------------------------------------------------------------

    /// Serialize to the `.xmd` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let k = self.rank();
        let mut w = Vec::with_capacity(64 + 24 * k);
        w.extend_from_slice(&XMD_MAGIC);
        w.extend_from_slice(&XMD_VERSION.to_le_bytes());
        w.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        w.push(self.dtype.code());
        w.push(k as u8);
        w.extend_from_slice(&[0u8; 2]); // reserved
        for &c in self.chunking.shape() {
            w.extend_from_slice(&(c as u64).to_le_bytes());
        }
        for &n in &self.element_bounds {
            w.extend_from_slice(&(n as u64).to_le_bytes());
        }
        for &g in self.grid.bounds() {
            w.extend_from_slice(&(g as u64).to_le_bytes());
        }
        let last = self.grid.last_extended().map(|d| d as i16).unwrap_or(-1);
        w.extend_from_slice(&last.to_le_bytes());
        for dim in 0..k {
            let recs = self.grid.axial(dim).records();
            w.extend_from_slice(&(recs.len() as u32).to_le_bytes());
            for r in recs {
                w.extend_from_slice(&(r.start_index as u64).to_le_bytes());
                w.extend_from_slice(&r.start_addr.to_le_bytes());
                for &c in &r.coeffs {
                    w.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        let crc = crc32(&w);
        w.extend_from_slice(&crc.to_le_bytes());
        w
    }

    /// Decode and validate an `.xmd` byte buffer.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != XMD_MAGIC {
            return Err(DrxError::CorruptMeta("bad magic".into()));
        }
        let version = r.u16()?;
        if version != XMD_VERSION {
            return Err(DrxError::CorruptMeta(format!("unsupported version {version}")));
        }
        let _flags = r.u16()?;
        let dtype = DType::from_code(r.u8()?)?;
        let k = r.u8()? as usize;
        if k == 0 || k > MAX_RANK {
            return Err(DrxError::CorruptMeta(format!("bad rank {k}")));
        }
        r.take(2)?; // reserved
        let chunk_shape = r.usize_vec(k)?;
        let element_bounds = r.usize_vec(k)?;
        let grid_bounds = r.usize_vec(k)?;
        let last = r.i16()?;
        let last_extended = if last < 0 {
            None
        } else if (last as usize) < k {
            Some(last as usize)
        } else {
            return Err(DrxError::CorruptMeta(format!("last_extended {last} out of range")));
        };
        let mut axial = Vec::with_capacity(k);
        for _ in 0..k {
            let n = r.u32()? as usize;
            let mut v = AxialVector::new();
            for _ in 0..n {
                let start_index = r.u64()? as usize;
                let start_addr = r.u64()?;
                let coeffs = r.u64_vec(k)?;
                v.push(AxialRecord { start_index, start_addr, coeffs })
                    .map_err(|e| DrxError::CorruptMeta(e.to_string()))?;
            }
            axial.push(v);
        }
        let body_len = r.pos();
        let crc_stored = r.u32()?;
        if !r.at_end() {
            return Err(DrxError::CorruptMeta("trailing bytes".into()));
        }
        if crc32(&bytes[..body_len]) != crc_stored {
            return Err(DrxError::CorruptMeta("checksum mismatch".into()));
        }

        let chunking =
            Chunking::new(&chunk_shape).map_err(|e| DrxError::CorruptMeta(e.to_string()))?;
        let grid = ExtendibleShape::from_parts(grid_bounds, axial, last_extended)
            .map_err(|e| DrxError::CorruptMeta(e.to_string()))?;
        // Cross-validate: the grid must be exactly the chunk cover of the
        // element bounds.
        let expected_grid =
            chunking.grid_for(&element_bounds).map_err(|e| DrxError::CorruptMeta(e.to_string()))?;
        if expected_grid != grid.bounds() {
            return Err(DrxError::CorruptMeta(format!(
                "grid bounds {:?} do not cover element bounds {:?} with chunks {:?}",
                grid.bounds(),
                element_bounds,
                chunk_shape
            )));
        }
        Ok(ArrayMeta { dtype, chunking, element_bounds, grid })
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), bitwise implementation —
/// metadata is small, so table-free simplicity wins.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Bounded little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn pos(&self) -> usize {
        self.pos
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(DrxError::CorruptMeta(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn i16(&mut self) -> Result<i16> {
        let b = self.take(2)?;
        Ok(i16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn u64_vec(&mut self, n: usize) -> Result<Vec<u64>> {
        (0..n).map(|_| self.u64()).collect()
    }

    fn usize_vec(&mut self, n: usize) -> Result<Vec<usize>> {
        (0..n)
            .map(|_| {
                let v = self.u64()?;
                usize::try_from(v)
                    .map_err(|_| DrxError::CorruptMeta(format!("value {v} exceeds usize")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> ArrayMeta {
        // Figure 1: A[10][12] with chunks 2×3, grown element-wise.
        let mut m = ArrayMeta::new(DType::Float64, &[2, 3], &[2, 3]).unwrap();
        m.extend(1, 3).unwrap();
        m.extend(0, 4).unwrap();
        m.extend(1, 4).unwrap();
        m.extend(0, 4).unwrap();
        m.extend(1, 2).unwrap();
        m
    }

    #[test]
    fn extend_allocates_chunks_only_when_needed() {
        let mut m = ArrayMeta::new(DType::Int32, &[2, 3], &[2, 3]).unwrap();
        assert_eq!(m.total_chunks(), 1);
        // Growing dim 1 from 3 to 4 elements needs a second chunk column.
        let out = m.extend(1, 1).unwrap();
        assert_eq!(out.first_new_chunk, Some(1));
        assert_eq!(out.new_chunk_count, 1);
        // Growing from 4 to 6 elements stays inside the same chunk column.
        let out = m.extend(1, 2).unwrap();
        assert_eq!(out.first_new_chunk, None);
        assert_eq!(out.new_chunk_count, 0);
        assert_eq!(m.element_bounds(), &[2, 6]);
        assert_eq!(m.total_chunks(), 2);
    }

    #[test]
    fn locate_element_composes_fstar_and_within_offset() {
        let m = sample_meta();
        assert_eq!(m.element_bounds(), &[10, 12]);
        assert_eq!(m.grid().bounds(), &[5, 4]);
        // Element (9,7): chunk [4,2], within (1,1) → offset 4.
        let (addr, off) = m.locate_element(&[9, 7]).unwrap();
        assert_eq!(addr, m.grid().address(&[4, 2]).unwrap());
        assert_eq!(off, 4);
        assert!(m.locate_element(&[10, 0]).is_err());
    }

    #[test]
    fn element_byte_offset_scales_by_dtype() {
        let m = sample_meta();
        let (addr, off) = m.locate_element(&[3, 4]).unwrap();
        assert_eq!(m.element_byte_offset(&[3, 4]).unwrap(), addr * 6 * 8 + off * 8);
    }

    #[test]
    fn codec_round_trip() {
        let m = sample_meta();
        let bytes = m.encode();
        let back = ArrayMeta::decode(&bytes).unwrap();
        assert_eq!(back, m);
        // Behavioural equality too: same addresses, same next extension.
        let mut a = m.clone();
        let mut b = back;
        assert_eq!(a.extend(0, 2).unwrap(), b.extend(0, 2).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn codec_rejects_corruption() {
        let m = sample_meta();
        let good = m.encode();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(ArrayMeta::decode(&bad), Err(DrxError::CorruptMeta(_))));
        // Truncation at every prefix length must error, never panic.
        for cut in 0..good.len() {
            assert!(ArrayMeta::decode(&good[..cut]).is_err());
        }
        // Single-byte corruption in the body is caught by the CRC (flip a
        // byte in the middle).
        let mut bad = good.clone();
        bad[20] ^= 0xFF;
        assert!(ArrayMeta::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(ArrayMeta::decode(&bad).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn shell_order_initial_layout() {
        // A 4×4 chunk grid in shell order: growth 1×1 → 2×2 → 3×3 → 4×4 via
        // cyclic single extensions. The (i,j) chunk addresses must match the
        // symmetric shell family: cell (0,0)=0 and every shell m occupies
        // addresses m²..(m+1)².
        let m =
            ArrayMeta::new_with_layout(DType::Int32, &[2, 2], &[8, 8], InitialLayout::ShellOrder)
                .unwrap();
        assert_eq!(m.grid().bounds(), &[4, 4]);
        for i in 0..4usize {
            for j in 0..4usize {
                let a = m.grid().address(&[i, j]).unwrap();
                let shell = i.max(j) as u64;
                assert!(
                    a >= shell * shell && a < (shell + 1) * (shell + 1),
                    "chunk ({i},{j}) at {a} not in shell {shell}"
                );
            }
        }
        // A row-major layout of the same grid differs (chunk (1,0) is 4 in
        // row-major, but in a shell in shell-order).
        let rm = ArrayMeta::new(DType::Int32, &[2, 2], &[8, 8]).unwrap();
        assert_eq!(rm.grid().address(&[1, 0]).unwrap(), 4);
        assert_ne!(m.grid().address(&[1, 0]).unwrap(), 4);
        // Codec round-trips the history; extension works as usual.
        let back = ArrayMeta::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        let mut grown = m.clone();
        grown.extend(1, 4).unwrap();
        assert_eq!(grown.grid().bounds(), &[4, 6]);
        assert_eq!(grown.grid().address(&[0, 0]).unwrap(), 0, "existing chunks stay put");
    }

    #[test]
    fn new_rejects_bad_arguments() {
        assert!(ArrayMeta::new(DType::Int32, &[2, 0], &[4, 4]).is_err());
        assert!(ArrayMeta::new(DType::Int32, &[2, 2], &[4]).is_err());
        assert!(ArrayMeta::new(DType::Int32, &[2, 2], &[0, 4]).is_err());
    }
}
