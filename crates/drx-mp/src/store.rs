//! The array store: one array's `name.xmd` + `name.xta` pair (paper §III,
//! §IV-A) and its commit protocol. `.xmd` holds the encoded [`ArrayMeta`],
//! `.xta` the chunk payload in `F*` address order. Metadata changes only at
//! create and extend, and [`ArrayStore::commit`] — the one `.xmd` writer —
//! fsyncs it, so committed bounds and every chunk address they imply
//! survive a crash. Every surface creates, opens, extends and recovers
//! arrays through this type.

use crate::error::Result;
use drx_core::{ArrayMeta, Element};
use drx_pfs::{Pfs, PfsError, PfsFile};

/// File-name suffixes used by the storage scheme (paper §IV).
pub const XMD_SUFFIX: &str = ".xmd";
pub const XTA_SUFFIX: &str = ".xta";

/// Handles on one array's metadata and payload files.
pub struct ArrayStore {
    xmd: PfsFile,
    xta: PfsFile,
}

impl ArrayStore {
    /// Create the file pair for `meta` and commit it: the payload is sized
    /// for the initial bounds and reads as zeros until written.
    pub fn create(pfs: &Pfs, base: &str, meta: &ArrayMeta) -> Result<Self> {
        let store = ArrayStore {
            xmd: pfs.create(&format!("{base}{XMD_SUFFIX}"))?,
            xta: pfs.create(&format!("{base}{XTA_SUFFIX}"))?,
        };
        store.commit(meta)?;
        Ok(store)
    }

    /// Open an existing pair and decode its metadata.
    pub fn open(pfs: &Pfs, base: &str) -> Result<(Self, ArrayMeta)> {
        let store = Self::attach(pfs, base)?;
        let meta = store.read_meta()?;
        Ok((store, meta))
    }

    /// Open an existing pair without reading its metadata: for the ranks
    /// of a parallel handle, which get their replica from rank 0.
    pub(crate) fn attach(pfs: &Pfs, base: &str) -> Result<Self> {
        Ok(ArrayStore {
            xmd: pfs.open(&format!("{base}{XMD_SUFFIX}"))?,
            xta: pfs.open(&format!("{base}{XTA_SUFFIX}"))?,
        })
    }

    /// Re-adopt a pair whose server-local streams outlived the previous
    /// file-system instance (process restart, crash), through
    /// [`Pfs::recover`]. `.xmd` is written densely, so its recovered length
    /// is exact; the possibly sparse payload is sized from the metadata. A
    /// name without metadata fails with [`PfsError::NoSuchFile`] and leaves
    /// no streams behind.
    pub fn adopt(pfs: &Pfs, base: &str) -> Result<(Self, ArrayMeta)> {
        let name = format!("{base}{XMD_SUFFIX}");
        let xmd = pfs.recover(&name)?;
        if xmd.is_empty() {
            pfs.delete(&name)?;
            return Err(PfsError::NoSuchFile(name).into());
        }
        let store = ArrayStore { xmd, xta: pfs.recover(&format!("{base}{XTA_SUFFIX}"))? };
        let meta = store.read_meta()?;
        store.xta.set_len(meta.payload_bytes())?;
        Ok((store, meta))
    }

    /// Delete both files of an array.
    pub fn delete(pfs: &Pfs, base: &str) -> Result<()> {
        pfs.delete(&format!("{base}{XMD_SUFFIX}"))?;
        pfs.delete(&format!("{base}{XTA_SUFFIX}"))?;
        Ok(())
    }

    /// The metadata commit point: size the payload for `meta` (appended
    /// chunks read as zeros; nothing moves), rewrite and trim `.xmd`, then
    /// fsync it.
    pub fn commit(&self, meta: &ArrayMeta) -> Result<()> {
        if self.xta.len() != meta.payload_bytes() {
            self.xta.set_len(meta.payload_bytes())?;
        }
        let image = meta.encode();
        self.xmd.write_at(0, &image)?;
        self.xmd.set_len(image.len() as u64)?;
        self.xmd.sync()?;
        Ok(())
    }

    /// The raw `.xta` payload file, at absolute byte offsets.
    pub fn payload(&self) -> &PfsFile {
        &self.xta
    }

    /// Read the element at payload byte `offset` (an `F*` element offset).
    pub fn get<T: Element>(&self, offset: u64) -> Result<T> {
        // Largest built-in element is Complex64 at 16 bytes.
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::SIZE];
        self.xta.read_at(offset, buf)?;
        Ok(T::read_le(buf))
    }

    /// Write the element at payload byte `offset`.
    pub fn set<T: Element>(&self, offset: u64, value: T) -> Result<()> {
        let vals = [value];
        match T::as_le_bytes(&vals) {
            Some(bytes) => self.xta.write_at(offset, bytes)?,
            None => {
                let mut buf = Vec::with_capacity(T::SIZE);
                value.write_le(&mut buf);
                self.xta.write_at(offset, &buf)?;
            }
        }
        Ok(())
    }

    fn read_meta(&self) -> Result<ArrayMeta> {
        Ok(ArrayMeta::decode(&self.meta_image()?)?)
    }

    /// The encoded `.xmd` image, as stored: one read request.
    pub(crate) fn meta_image(&self) -> Result<Vec<u8>> {
        Ok(self.xmd.read_vec(0, self.xmd.len() as usize)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MpError;

    #[test]
    fn adopting_a_missing_name_leaves_no_file() {
        let pfs = Pfs::memory(2, 64).unwrap();
        assert!(matches!(
            ArrayStore::adopt(&pfs, "nope"),
            Err(MpError::Pfs(PfsError::NoSuchFile(_)))
        ));
        assert!(!pfs.exists("nope.xmd"));
        assert!(!pfs.exists("nope.xta"));
    }
}
