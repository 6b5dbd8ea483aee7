//! Element data types.
//!
//! The paper restricts array elements to the three basic types that MPI-2
//! remote-memory operations (`MPI_Get` / `MPI_Put` / `MPI_Accumulate`) can
//! handle directly: *integer*, *double* and *complex*. We additionally allow
//! the 32-bit variants, which changes nothing structurally.

use crate::error::{DrxError, Result};

/// Runtime tag for the element type of an array file.
///
/// Stored in the `.xmd` metadata file as a single byte code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    Int32,
    Int64,
    Float32,
    Float64,
    /// Double-precision complex (two `f64`s), the paper's "complex".
    Complex64,
}

impl DType {
    /// Size of one element in bytes.
    pub const fn size(self) -> usize {
        match self {
            DType::Int32 | DType::Float32 => 4,
            DType::Int64 | DType::Float64 => 8,
            DType::Complex64 => 16,
        }
    }

    /// Stable one-byte code used in the `.xmd` metadata format.
    pub const fn code(self) -> u8 {
        match self {
            DType::Int32 => 1,
            DType::Int64 => 2,
            DType::Float32 => 3,
            DType::Float64 => 4,
            DType::Complex64 => 5,
        }
    }

    /// Inverse of [`DType::code`].
    pub fn from_code(code: u8) -> Result<Self> {
        Ok(match code {
            1 => DType::Int32,
            2 => DType::Int64,
            3 => DType::Float32,
            4 => DType::Float64,
            5 => DType::Complex64,
            other => return Err(DrxError::UnknownDType(other)),
        })
    }

    /// Human-readable name, used in harness output.
    pub const fn name(self) -> &'static str {
        match self {
            DType::Int32 => "int32",
            DType::Int64 => "int64",
            DType::Float32 => "float32",
            DType::Float64 => "float64",
            DType::Complex64 => "complex64",
        }
    }
}

/// Double-precision complex number — the paper's third element type.
///
/// Only the operations needed by the library (byte codec, accumulate-add,
/// equality for tests) are provided; this is a storage type, not a numerics
/// library.
/// `repr(C)` so the in-memory layout (`re` then `im`, no padding) matches
/// the serialized encoding on little-endian hosts — see
/// [`Element::as_le_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    pub re: f64,
    pub im: f64,
}

impl Complex64 {
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }
}

impl std::ops::Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

/// A fixed-size element that can live in a DRX array.
///
/// All on-disk representations are little-endian, independent of the host,
/// so `.xta` files are portable (the original implementation wrote "native
/// binary"; we tighten that to a defined byte order).
pub trait Element: Copy + Default + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// The runtime tag matching this type.
    const DTYPE: DType;
    /// Serialized size in bytes; equals `Self::DTYPE.size()`.
    const SIZE: usize;

    /// Append the little-endian encoding of `self` to `out`.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Decode from exactly `Self::SIZE` bytes.
    fn read_le(bytes: &[u8]) -> Self;
    /// Element addition, used by `accumulate` (paper: `MPI_Accumulate`).
    fn acc(self, other: Self) -> Self;

    /// View a slice of elements as the raw byte image of its serialized
    /// little-endian form, when the in-memory representation matches that
    /// form exactly — true for every built-in element type on a
    /// little-endian host. Returns `None` when no such view exists (e.g.
    /// big-endian hosts); callers fall back to the per-element codec.
    ///
    /// This is what lets the scatter/gather fast path `copy_from_slice`
    /// whole rows instead of decoding element by element.
    fn as_le_bytes(slice: &[Self]) -> Option<&[u8]> {
        let _ = slice;
        None
    }

    /// Mutable variant of [`Element::as_le_bytes`]. Implementations must
    /// only provide this when every byte pattern is a valid element value,
    /// so writes through the view cannot create invalid elements.
    fn as_le_bytes_mut(slice: &mut [Self]) -> Option<&mut [u8]> {
        let _ = slice;
        None
    }
}

/// Implement the byte-view accessors for a plain-old-data element type
/// whose in-memory representation on a little-endian host equals its
/// `write_le` encoding (no padding, every byte pattern valid).
macro_rules! impl_le_byte_view {
    () => {
        #[cfg(target_endian = "little")]
        fn as_le_bytes(slice: &[Self]) -> Option<&[u8]> {
            // SAFETY: Self is a padding-free POD type (size == serialized
            // SIZE, asserted in tests), so this memory is fully initialized
            // bytes — on a little-endian host the `write_le` encoding.
            Some(unsafe {
                std::slice::from_raw_parts(
                    slice.as_ptr().cast::<u8>(),
                    std::mem::size_of_val(slice),
                )
            })
        }

        #[cfg(target_endian = "little")]
        fn as_le_bytes_mut(slice: &mut [Self]) -> Option<&mut [u8]> {
            // SAFETY: as for `as_le_bytes`; additionally every byte pattern
            // of these numeric types is a valid value, so arbitrary writes
            // through the view cannot produce an invalid element.
            Some(unsafe {
                std::slice::from_raw_parts_mut(
                    slice.as_mut_ptr().cast::<u8>(),
                    std::mem::size_of_val(slice),
                )
            })
        }
    };
}

macro_rules! impl_element_numeric {
    ($t:ty, $dt:expr, $size:expr) => {
        impl Element for $t {
            const DTYPE: DType = $dt;
            const SIZE: usize = $size;

            fn write_le(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn read_le(bytes: &[u8]) -> Self {
                let mut buf = [0u8; $size];
                buf.copy_from_slice(&bytes[..$size]);
                <$t>::from_le_bytes(buf)
            }

            fn acc(self, other: Self) -> Self {
                self + other
            }

            impl_le_byte_view!();
        }
    };
}

impl_element_numeric!(i32, DType::Int32, 4);
impl_element_numeric!(i64, DType::Int64, 8);
impl_element_numeric!(f32, DType::Float32, 4);
impl_element_numeric!(f64, DType::Float64, 8);

impl Element for Complex64 {
    const DTYPE: DType = DType::Complex64;
    const SIZE: usize = 16;

    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.re.to_le_bytes());
        out.extend_from_slice(&self.im.to_le_bytes());
    }

    fn read_le(bytes: &[u8]) -> Self {
        let mut re = [0u8; 8];
        let mut im = [0u8; 8];
        re.copy_from_slice(&bytes[..8]);
        im.copy_from_slice(&bytes[8..16]);
        Complex64::new(f64::from_le_bytes(re), f64::from_le_bytes(im))
    }

    fn acc(self, other: Self) -> Self {
        self + other
    }

    impl_le_byte_view!();
}

/// Encode a slice of elements into little-endian bytes.
pub fn encode_slice<T: Element>(elems: &[T]) -> Vec<u8> {
    let mut out = vec![0u8; elems.len() * T::SIZE];
    encode_into(elems, &mut out);
    out
}

/// Encode `elems` into `out` as little-endian bytes (`out` holds exactly
/// `elems.len() * T::SIZE` bytes): [`encode_slice`] without the allocation.
pub fn encode_into<T: Element>(elems: &[T], out: &mut [u8]) {
    debug_assert_eq!(out.len(), elems.len() * T::SIZE);
    if let Some(bytes) = T::as_le_bytes(elems) {
        out.copy_from_slice(bytes);
        return;
    }
    let mut tmp = Vec::with_capacity(T::SIZE);
    for (e, slot) in elems.iter().zip(out.chunks_exact_mut(T::SIZE)) {
        tmp.clear();
        e.write_le(&mut tmp);
        slot.copy_from_slice(&tmp);
    }
}

/// Decode a little-endian byte buffer into elements.
///
/// Returns an error when the byte count is not a multiple of the element size.
pub fn decode_slice<T: Element>(bytes: &[u8]) -> Result<Vec<T>> {
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(DrxError::BufferSize {
            expected: bytes.len() / T::SIZE * T::SIZE,
            got: bytes.len(),
        });
    }
    Ok(bytes.chunks_exact(T::SIZE).map(T::read_le).collect())
}

/// Decode into an existing buffer (avoids an allocation in hot I/O paths).
pub fn decode_into<T: Element>(bytes: &[u8], out: &mut [T]) -> Result<()> {
    if bytes.len() != out.len() * T::SIZE {
        return Err(DrxError::BufferSize { expected: out.len() * T::SIZE, got: bytes.len() });
    }
    if let Some(view) = T::as_le_bytes_mut(out) {
        view.copy_from_slice(bytes);
        return Ok(());
    }
    for (chunk, slot) in bytes.chunks_exact(T::SIZE).zip(out.iter_mut()) {
        *slot = T::read_le(chunk);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for dt in [DType::Int32, DType::Int64, DType::Float32, DType::Float64, DType::Complex64] {
            assert_eq!(DType::from_code(dt.code()).unwrap(), dt);
        }
        assert!(DType::from_code(0).is_err());
        assert!(DType::from_code(99).is_err());
    }

    #[test]
    fn sizes_match_trait_constants() {
        assert_eq!(DType::Int32.size(), <i32 as Element>::SIZE);
        assert_eq!(DType::Int64.size(), <i64 as Element>::SIZE);
        assert_eq!(DType::Float32.size(), <f32 as Element>::SIZE);
        assert_eq!(DType::Float64.size(), <f64 as Element>::SIZE);
        assert_eq!(DType::Complex64.size(), <Complex64 as Element>::SIZE);
    }

    #[test]
    fn scalar_round_trip() {
        let vals: Vec<f64> = vec![0.0, -1.5, 1e300, f64::MIN_POSITIVE];
        let bytes = encode_slice(&vals);
        assert_eq!(bytes.len(), vals.len() * 8);
        let back: Vec<f64> = decode_slice(&bytes).unwrap();
        assert_eq!(back, vals);
    }

    #[test]
    fn complex_round_trip_and_acc() {
        let vals = vec![Complex64::new(1.0, -2.0), Complex64::new(0.5, 0.25)];
        let bytes = encode_slice(&vals);
        let back: Vec<Complex64> = decode_slice(&bytes).unwrap();
        assert_eq!(back, vals);
        let s = vals[0].acc(vals[1]);
        assert_eq!(s, Complex64::new(1.5, -1.75));
    }

    #[test]
    fn decode_into_checks_length() {
        let bytes = encode_slice(&[1i32, 2, 3]);
        let mut out = [0i32; 2];
        assert!(decode_into(&bytes, &mut out).is_err());
        let mut out = [0i32; 3];
        decode_into(&bytes, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn decode_slice_rejects_ragged_input() {
        let bytes = [0u8; 7];
        assert!(decode_slice::<i32>(&bytes).is_err());
    }

    #[test]
    fn byte_view_sizes_are_exact() {
        // The `as_le_bytes` SAFETY argument requires the in-memory size to
        // equal the serialized size (no padding) for every element type.
        assert_eq!(std::mem::size_of::<i32>(), <i32 as Element>::SIZE);
        assert_eq!(std::mem::size_of::<i64>(), <i64 as Element>::SIZE);
        assert_eq!(std::mem::size_of::<f32>(), <f32 as Element>::SIZE);
        assert_eq!(std::mem::size_of::<f64>(), <f64 as Element>::SIZE);
        assert_eq!(std::mem::size_of::<Complex64>(), <Complex64 as Element>::SIZE);
    }

    fn view_matches_codec<T: Element>(vals: &[T]) {
        let encoded = {
            let mut out = Vec::new();
            for v in vals {
                v.write_le(&mut out);
            }
            out
        };
        if let Some(view) = T::as_le_bytes(vals) {
            assert_eq!(view, &encoded[..]);
        }
        let mut decoded = vec![T::default(); vals.len()];
        if let Some(view) = T::as_le_bytes_mut(&mut decoded) {
            view.copy_from_slice(&encoded);
            assert_eq!(decoded, vals);
        }
    }

    #[test]
    fn byte_view_agrees_with_write_le() {
        view_matches_codec(&[1i32, -7, i32::MAX, i32::MIN]);
        view_matches_codec(&[1i64, -7, i64::MAX]);
        view_matches_codec(&[0.5f32, -1.25, f32::MIN_POSITIVE]);
        view_matches_codec(&[0.5f64, -1.25, 1e300]);
        view_matches_codec(&[Complex64::new(1.5, -2.5), Complex64::new(0.0, 3.25)]);
    }
}
