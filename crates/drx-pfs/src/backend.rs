//! Storage backends for the simulated I/O servers.
//!
//! A backend stores the *local* byte stream of one file on one server (the
//! concatenation of the stripes that server owns). Reads beyond the locally
//! written length yield zeros — holes are legal at the local level; logical
//! end-of-file policing happens in [`crate::file::PfsFile`].

use crate::error::{PfsError, Result};
use drx_fault::{CrashFile, Decision, Injector, Op};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::Arc;

/// Byte-addressed storage for one (file, server) pair.
///
/// (`is_empty` is deliberately absent: backends are byte streams addressed
/// by the striping layer, which never asks about emptiness.)
#[allow(clippy::len_without_is_empty)]
pub trait Storage: Send + Sync {
    /// Read `buf.len()` bytes at `offset`; bytes beyond the written length
    /// read as zero.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
    /// Write `data` at `offset`, extending the local length as needed.
    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()>;
    /// Locally written length in bytes.
    fn len(&self) -> Result<u64>;
    /// Truncate or zero-extend to `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;
    /// Force written bytes to durable storage (fsync). Volatile backends
    /// treat this as a durability barrier in their crash model; for
    /// [`MemBackend`] (no crash model) it is a no-op.
    fn sync(&self) -> Result<()>;
}

/// In-memory backend — the default for tests and benchmarks (deterministic,
/// no disk noise).
#[derive(Default)]
pub struct MemBackend {
    // lock-class: data => PfsBacking
    data: Mutex<Vec<u8>>,
}

impl MemBackend {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let data = self.data.lock();
        // Copy the written prefix of the range, zero the hole beyond it.
        let start = usize::try_from(offset).unwrap_or(usize::MAX).min(data.len());
        let kept = (data.len() - start).min(buf.len());
        let (prefix, hole) = buf.split_at_mut(kept);
        prefix.copy_from_slice(&data[start..start + kept]);
        hole.fill(0);
        Ok(())
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> Result<()> {
        let mut data = self.data.lock();
        let end = offset as usize + bytes.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(bytes);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.data.lock().len() as u64)
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.data.lock().resize(len as usize, 0);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

/// Real-file backend: stores the server-local stream in one file on the host
/// file system (used when the caller wants actual disk I/O).
pub struct FileBackend {
    file: File,
}

impl FileBackend {
    /// Open (creating if needed) the backing file at `path`.
    pub fn open(path: &Path) -> Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(FileBackend { file })
    }
}

impl Storage for FileBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        // Zero-fill semantics: read what exists, zero the rest. The loop
        // absorbs `EINTR` and short reads itself instead of surfacing them
        // — positioned reads may legally return early.
        let flen = self.file.metadata()?.len();
        if offset >= flen {
            buf.fill(0);
            return Ok(());
        }
        let avail = ((flen - offset) as usize).min(buf.len());
        let mut done = 0usize;
        while done < avail {
            match self.file.read_at(&mut buf[done..avail], offset + done as u64) {
                Ok(0) => break, // concurrent truncation: the rest is a hole
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        buf[done..].fill(0);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        // Same contract as reads: `EINTR` and partial writes are retried
        // here, not surfaced to the striping layer.
        let mut done = 0usize;
        while done < data.len() {
            match self.file.write_at(&data[done..], offset + done as u64) {
                Ok(0) => {
                    return Err(PfsError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "write_at returned 0 bytes",
                    )))
                }
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

/// Crash-model backend: the server-local stream lives in a
/// [`drx_fault::CrashFile`] with an explicit volatile/durable split.
/// `sync` is the durability barrier; [`drx_fault::CrashRegistry::crash_all`]
/// simulates power loss, and a file system rebuilt over the same registry
/// sees exactly what was synced.
pub struct CrashBackend {
    file: Arc<CrashFile>,
}

impl CrashBackend {
    pub fn new(file: Arc<CrashFile>) -> CrashBackend {
        CrashBackend { file }
    }
}

impl Storage for CrashBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.file.read_at(offset, buf);
        Ok(())
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.file.write_at(offset, data);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync();
        Ok(())
    }
}

/// Fault-injecting decorator: consults a shared [`drx_fault::Injector`]
/// before every operation and maps its decisions onto typed [`PfsError`]s.
/// Wraps any inner backend; composed over [`CrashBackend`] the injected
/// torn writes leave exactly the bytes a real crash would.
pub struct FaultyBackend {
    inner: Box<dyn Storage>,
    injector: Arc<Injector>,
    /// Fault domain: the owning server's id.
    domain: usize,
}

impl FaultyBackend {
    pub fn new(inner: Box<dyn Storage>, injector: Arc<Injector>, domain: usize) -> FaultyBackend {
        FaultyBackend { inner, injector, domain }
    }

    fn interrupted(&self) -> PfsError {
        PfsError::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, "injected EINTR"))
    }
}

impl Storage for FaultyBackend {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        match self.injector.decide(self.domain, Op::Read, buf.len()) {
            Decision::Pass | Decision::TornWrite { .. } => self.inner.read_at(offset, buf),
            Decision::Interrupt => Err(self.interrupted()),
            Decision::Unavailable => Err(PfsError::Unavailable { server: self.domain }),
            Decision::ShortRead { keep } => {
                let keep = keep.min(buf.len());
                self.inner.read_at(offset, &mut buf[..keep])?;
                Err(PfsError::ShortIo { server: self.domain, expected: buf.len(), got: keep })
            }
            Decision::Delay { micros } => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                self.inner.read_at(offset, buf)
            }
        }
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        match self.injector.decide(self.domain, Op::Write, data.len()) {
            Decision::Pass | Decision::ShortRead { .. } => self.inner.write_at(offset, data),
            Decision::Interrupt => Err(self.interrupted()),
            Decision::Unavailable => Err(PfsError::Unavailable { server: self.domain }),
            Decision::TornWrite { keep } => {
                let keep = keep.min(data.len());
                self.inner.write_at(offset, &data[..keep])?;
                Err(PfsError::Torn { server: self.domain, written: keep })
            }
            Decision::Delay { micros } => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                self.inner.write_at(offset, data)
            }
        }
    }

    fn len(&self) -> Result<u64> {
        // Length queries are metadata lookups, not scripted operations.
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        match self.injector.decide(self.domain, Op::SetLen, 0) {
            Decision::Interrupt => Err(self.interrupted()),
            Decision::Unavailable => Err(PfsError::Unavailable { server: self.domain }),
            Decision::Delay { micros } => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                self.inner.set_len(len)
            }
            _ => self.inner.set_len(len),
        }
    }

    fn sync(&self) -> Result<()> {
        match self.injector.decide(self.domain, Op::Sync, 0) {
            Decision::Interrupt => Err(self.interrupted()),
            Decision::Unavailable => Err(PfsError::Unavailable { server: self.domain }),
            Decision::Delay { micros } => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                self.inner.sync()
            }
            _ => self.inner.sync(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn Storage) {
        // Fresh backend reads as zeros.
        let mut buf = [7u8; 4];
        backend.read_at(100, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
        // Write then read back.
        backend.write_at(10, b"hello").unwrap();
        let mut buf = [0u8; 5];
        backend.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(backend.len().unwrap(), 15);
        // Straddling read: partly written, partly hole.
        let mut buf = [9u8; 10];
        backend.read_at(12, &mut buf).unwrap();
        assert_eq!(&buf[..3], b"llo");
        assert_eq!(&buf[3..], &[0; 7]);
        // Truncate.
        backend.set_len(12).unwrap();
        assert_eq!(backend.len().unwrap(), 12);
        let mut buf = [9u8; 3];
        backend.read_at(12, &mut buf).unwrap();
        assert_eq!(buf, [0; 3]);
        // Zero-extend.
        backend.set_len(20).unwrap();
        assert_eq!(backend.len().unwrap(), 20);
    }

    #[test]
    fn mem_backend_semantics() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn file_backend_semantics() {
        let dir = std::env::temp_dir().join(format!("drx-pfs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("backend-test.bin");
        let _ = std::fs::remove_file(&path);
        exercise(&FileBackend::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mem_backend_overwrite() {
        let b = MemBackend::new();
        b.write_at(0, b"aaaa").unwrap();
        b.write_at(2, b"bb").unwrap();
        let mut buf = [0u8; 4];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"aabb");
    }

    #[test]
    fn mem_backend_reads_zero_beyond_written_length() {
        let b = MemBackend::new();
        b.write_at(0, b"abcdef").unwrap();
        // Straddling the written length: the prefix, then zeros.
        let mut buf = [9u8; 8];
        b.read_at(3, &mut buf).unwrap();
        assert_eq!(&buf, b"def\0\0\0\0\0");
        // Wholly past the written length (including an offset beyond any
        // addressable `usize` on the stored vector): all zeros.
        for offset in [6, 100, u64::MAX] {
            let mut buf = [9u8; 5];
            b.read_at(offset, &mut buf).unwrap();
            assert_eq!(buf, [0; 5], "offset {offset}");
        }
        // Zero-length reads anywhere are no-ops.
        for offset in [0, 6, 1000] {
            b.read_at(offset, &mut []).unwrap();
        }
        assert_eq!(b.len().unwrap(), 6);
    }

    #[test]
    fn faulty_short_read_over_mem_backend_fills_exactly_the_kept_prefix() {
        use drx_fault::{Event, FaultKind, Script};
        let script = Script {
            seed: 0,
            events: vec![Event {
                at_op: 0,
                domain: None,
                op: Some(Op::Read),
                kind: FaultKind::ShortRead,
            }],
        };
        let inner = MemBackend::new();
        inner.write_at(0, b"abcdefgh").unwrap();
        let b = FaultyBackend::new(Box::new(inner), Arc::new(Injector::new(script)), 0);
        let mut buf = [9u8; 8];
        assert!(matches!(
            b.read_at(0, &mut buf),
            Err(PfsError::ShortIo { server: 0, expected: 8, got: 4 })
        ));
        // The kept prefix is filled; the rest of the caller's buffer is
        // untouched.
        assert_eq!(&buf, b"abcd\x09\x09\x09\x09");
    }

    #[test]
    fn crash_backend_semantics() {
        exercise(&CrashBackend::new(Arc::new(CrashFile::default())));
    }

    #[test]
    fn crash_backend_loses_unsynced_writes() {
        let file = Arc::new(CrashFile::default());
        let b = CrashBackend::new(Arc::clone(&file));
        b.write_at(0, b"durable!").unwrap();
        b.sync().unwrap();
        b.write_at(0, b"volatile").unwrap();
        file.crash();
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"durable!");
    }

    #[test]
    fn faulty_backend_inert_passes_through() {
        let inj = Arc::new(Injector::inert());
        exercise(&FaultyBackend::new(Box::new(MemBackend::new()), inj, 0));
    }

    #[test]
    fn faulty_backend_maps_decisions_to_typed_errors() {
        use drx_fault::{Event, FaultKind, Script};
        // Script: op 0 short read, op 1 EINTR, op 2 torn write, op 3 down.
        let script = Script {
            seed: 0,
            events: vec![
                Event { at_op: 0, domain: None, op: Some(Op::Read), kind: FaultKind::ShortRead },
                Event { at_op: 1, domain: None, op: Some(Op::Read), kind: FaultKind::Interrupted },
                Event { at_op: 2, domain: None, op: Some(Op::Write), kind: FaultKind::TornWrite },
                Event { at_op: 3, domain: Some(0), op: None, kind: FaultKind::Down },
            ],
        };
        let inj = Arc::new(Injector::new(script));
        let b = FaultyBackend::new(Box::new(MemBackend::new()), inj, 0);
        let mut buf = [0u8; 8];
        assert!(matches!(
            b.read_at(0, &mut buf),
            Err(PfsError::ShortIo { server: 0, expected: 8, got: 4 })
        ));
        match b.read_at(0, &mut buf) {
            Err(PfsError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::Interrupted),
            other => panic!("expected injected EINTR, got {other:?}"),
        }
        assert!(matches!(
            b.write_at(0, b"abcdefgh"),
            Err(PfsError::Torn { server: 0, written: 4 })
        ));
        // Fourth op arms Down: everything afterwards is Unavailable.
        assert!(matches!(b.read_at(0, &mut buf), Err(PfsError::Unavailable { server: 0 })));
        assert!(matches!(b.sync(), Err(PfsError::Unavailable { server: 0 })));
    }

    #[test]
    fn faulty_backend_torn_write_persists_prefix_only() {
        use drx_fault::{Event, FaultKind, Script};
        let script = Script {
            seed: 0,
            events: vec![Event {
                at_op: 0,
                domain: None,
                op: Some(Op::Write),
                kind: FaultKind::TornWrite,
            }],
        };
        let inj = Arc::new(Injector::new(script));
        let b = FaultyBackend::new(Box::new(MemBackend::new()), inj, 0);
        assert!(matches!(b.write_at(0, b"abcdefgh"), Err(PfsError::Torn { written: 4, .. })));
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd\0\0\0\0");
    }
}
