//! Memory-mapped, chunk-faulted file backing for read-only serving state.
//!
//! [`MmapBuf`] maps a whole file read-only via the platform `mmap` (raw
//! FFI through the `libc` shim — `std` already links the C library, so
//! zero dependencies are vendored). Pages fault in lazily on first touch,
//! so a store whose rows live in an [`MmapBuf`] can exceed physical RAM:
//! the kernel keeps the hot working set resident and evicts cold chunks
//! under pressure, which is exactly the access economics IVF-style
//! sharded serving wants (only the probed shards' rows ever fault in).
//!
//! Every consumer must also work where mapping is impossible, so the
//! module carries a **file-backed fallback reader**: [`MmapBuf::open`]
//! falls back to reading the file into an anonymous heap buffer when
//! `mmap` is unavailable (non-Unix), fails, or is disabled via
//! [`set_mmap_enabled`] — observationally identical,
//! just without the beyond-RAM economics. [`MmapRegion`] is a cheap
//! ref-counted byte window into a buffer, the unit a mapped store holds
//! for its rows.

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Whether [`MmapBuf::open`] maps: on wherever the platform can.
static MMAP: AtomicBool = AtomicBool::new(cfg!(unix));

/// Whether [`MmapBuf::open`] will try to map (Unix, unless
/// [`set_mmap_enabled`] turned it off).
#[inline]
pub fn mmap_enabled() -> bool {
    MMAP.load(Ordering::Relaxed)
}

/// In-process override for A/B runs and fallback tests. `true` re-enables
/// mapping only where the platform supports it.
pub fn set_mmap_enabled(on: bool) {
    MMAP.store(on && cfg!(unix), Ordering::Relaxed);
}

/// Expected access pattern for [`MmapBuf::advise`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advice {
    /// Random point lookups (curb readahead) — serving traversals.
    Random,
    /// Sequential scan (aggressive readahead) — ground-truth sweeps.
    Sequential,
    /// Fault the region in ahead of use.
    WillNeed,
}

enum Backing {
    /// Pages owned by the kernel; unmapped on drop.
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// The fallback reader's anonymous heap copy.
    Heap(Vec<u8>),
}

/// A read-only byte buffer backed by a memory-mapped file, or by a heap
/// copy when mapping is unavailable (see module docs).
pub struct MmapBuf {
    backing: Backing,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated after
// construction; shared references to immutable bytes are Send + Sync.
unsafe impl Send for MmapBuf {}
unsafe impl Sync for MmapBuf {}

impl MmapBuf {
    /// Opens `path`, mapping it when [`mmap_enabled`] and falling back to
    /// the heap reader otherwise (or if the mapping attempt fails).
    pub fn open(path: &Path) -> io::Result<Arc<Self>> {
        if mmap_enabled() {
            if let Ok(buf) = Self::open_mapped(path) {
                return Ok(buf);
            }
        }
        Self::open_heap(path)
    }

    /// Maps `path` read-only; errors if the platform cannot map it.
    #[cfg(unix)]
    pub fn open_mapped(path: &Path) -> io::Result<Arc<Self>> {
        use std::os::unix::io::AsRawFd;
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file exceeds usize"))?;
        if len == 0 {
            // Zero-length mappings are an error to mmap; an empty heap
            // buffer is observationally the same.
            return Ok(Arc::new(Self { backing: Backing::Heap(Vec::new()) }));
        }
        // SAFETY: fd is a freshly opened readable file, len is its exact
        // size, and the mapping is private read-only. The fd may be closed
        // right after — the mapping keeps the file referenced.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ,
                libc::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(Self { backing: Backing::Mapped { ptr: ptr.cast(), len } }))
    }

    /// Mapping is unsupported off-Unix; callers land in the fallback.
    #[cfg(not(unix))]
    pub fn open_mapped(_path: &Path) -> io::Result<Arc<Self>> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "mmap requires a Unix target"))
    }

    /// The file-backed fallback reader: loads the whole file into an
    /// anonymous heap buffer.
    pub fn open_heap(path: &Path) -> io::Result<Arc<Self>> {
        let mut file = File::open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        Ok(Arc::new(Self { backing: Backing::Heap(data) }))
    }

    /// Whether the bytes come from a live kernel mapping (false: heap
    /// fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { .. } => true,
            Backing::Heap(_) => false,
        }
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { len, .. } => *len,
            Backing::Heap(v) => v.len(),
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole buffer.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the borrow cannot outlive the mapping.
            Backing::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(v) => v,
        }
    }

    /// Hints the kernel about the expected access pattern over
    /// `[offset, offset + len)`. Best-effort: a no-op on the heap
    /// fallback or if the kernel declines.
    pub fn advise(&self, offset: usize, len: usize, advice: Advice) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len: total } = &self.backing {
            if offset >= *total || len == 0 {
                return;
            }
            let len = len.min(*total - offset);
            // madvise wants page-aligned starts; round down and extend.
            let page = 4096usize;
            let lead = offset % page;
            let (offset, len) = (offset - lead, len + lead);
            let flag = match advice {
                Advice::Random => libc::MADV_RANDOM,
                Advice::Sequential => libc::MADV_SEQUENTIAL,
                Advice::WillNeed => libc::MADV_WILLNEED,
            };
            // SAFETY: the range is within the live mapping.
            unsafe {
                libc::madvise(ptr.add(offset).cast(), len, flag);
            }
        }
        #[cfg(not(unix))]
        let _ = (offset, len, advice);
    }
}

impl Drop for MmapBuf {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len } = &self.backing {
            // SAFETY: ptr/len came from a successful mmap and are dropped
            // exactly once.
            unsafe {
                libc::munmap((*ptr).cast(), *len);
            }
        }
    }
}

impl std::fmt::Debug for MmapBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapBuf")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A cheap ref-counted window into an [`MmapBuf`] — the unit a mapped
/// store holds (e.g. the vector rows of one persisted shard). Clones
/// share the underlying mapping.
#[derive(Clone, Debug)]
pub struct MmapRegion {
    buf: Arc<MmapBuf>,
    offset: usize,
    len: usize,
}

impl MmapRegion {
    /// A window over `[offset, offset + len)` of `buf`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn new(buf: Arc<MmapBuf>, offset: usize, len: usize) -> Self {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= buf.len()),
            "region [{offset}, {offset}+{len}) out of bounds for {} mapped bytes",
            buf.len()
        );
        Self { buf, offset, len }
    }

    /// Whether the backing buffer is a live kernel mapping.
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// The region's bytes, 4-byte aligned reinterpreted as `f32`s.
    ///
    /// # Panics
    /// Panics if the region start is not 4-byte aligned or the length is
    /// not a multiple of 4 (persisted sections align data areas to 64).
    pub fn as_f32s(&self) -> &[f32] {
        let bytes = self.deref();
        assert!(
            (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f32>()),
            "unaligned region"
        );
        assert!(bytes.len().is_multiple_of(4), "region is not whole f32s");
        // SAFETY: alignment and length checked; any bit pattern is a
        // valid f32; the mapping is immutable and outlives the borrow.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }
    }

    /// Kernel access-pattern hint for this region (no-op on fallback).
    pub fn advise(&self, advice: Advice) {
        self.buf.advise(self.offset, self.len, advice);
    }
}

impl Deref for MmapRegion {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf.as_bytes()[self.offset..self.offset + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, data: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("gass_mmap_{}_{name}", std::process::id()));
        std::fs::write(&p, data).unwrap();
        p
    }

    #[test]
    fn mapped_and_heap_agree() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let p = tmp("agree", &data);
        let heap = MmapBuf::open_heap(&p).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(heap.as_bytes(), &data[..]);
        if cfg!(unix) {
            let mapped = MmapBuf::open_mapped(&p).unwrap();
            assert!(mapped.is_mapped());
            assert_eq!(mapped.as_bytes(), heap.as_bytes());
            mapped.advise(0, mapped.len(), Advice::Random);
            mapped.advise(64, 4096, Advice::WillNeed);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn region_windows_and_f32_view() {
        let floats: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        let mut bytes = vec![0u8; 64]; // 64-byte aligned data area, like persist
        for f in &floats {
            bytes.extend_from_slice(&f.to_le_bytes());
        }
        let p = tmp("region", &bytes);
        let buf = MmapBuf::open(&p).unwrap();
        let region = MmapRegion::new(buf, 64, floats.len() * 4);
        assert_eq!(region.as_f32s(), &floats[..]);
        region.advise(Advice::Sequential);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_buffer() {
        let p = tmp("empty", &[]);
        let buf = MmapBuf::open(&p).unwrap();
        assert!(buf.is_empty());
        std::fs::remove_file(&p).ok();
    }
}
