//! Column storage: every posting column is either heap-owned or borrowed
//! zero-copy from a memory-mapped index file.
//!
//! [`Column<T>`] is the store behind each [`Layer`] column
//! (`offsets`/`ids`/`weights` and the forward triplet) and the per-node
//! aggregate tables. An `Owned` column is an `Arc<Vec<T>>`, shared by
//! every clone; a `Mapped` column is an aligned window into an
//! [`MmapRegion`] reinterpreted in place as `[T]` — no parse, no copy,
//! pages fault in on first touch. Both deref to `&[T]`, so every consumer
//! (postings views, point queries, gain engines, `save`) reads the same
//! slice type and cannot observe which store backs it.
//!
//! Either store clones in O(1), so cloning a whole index (the
//! copy-on-write step when a reader still pins the current epoch) bumps
//! refcounts instead of copying postings. Mutation copies only what is
//! shared: [`Column::make_mut`] promotes a mapped column to an owned
//! `Vec`, and copies an owned one only while another holder shares it.
//! The refresh path swaps whole rebuilt columns per layer, so promotion
//! lands exactly at layer grain — a promoted-then-edited index is bitwise
//! equal to an owned-then-edited one (see `tests/storage_equivalence.rs`).
//!
//! The mmap itself is a minimal std-only `mmap(2)`/`munmap(2)` FFI
//! wrapper (`PROT_READ`, `MAP_PRIVATE`) — no crates. Zero-copy
//! reinterpretation requires a little-endian host (the on-disk format is
//! little-endian); the open path enforces that with a compile-time gate
//! and falls back to the deserializing loader elsewhere. All downstream
//! accesses go through bounds-checked slices, so even a file that
//! mutates under the map (which `MAP_PRIVATE` leaves unspecified) can
//! only produce wrong query answers or a clean panic — never undefined
//! behaviour. Structural invariants (offset monotonicity) are validated
//! once at open; bulk payloads are trusted under the file's CRC-32
//! trailer.
//!
//! [`Layer`]: crate::index::WalkIndex

use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;

/// Scalars a [`Column`] may store: plain old data with no padding and no
/// invalid bit patterns, stored little-endian on disk. Sealed — the
/// on-disk format only ever holds `u16`/`u32`/`u64` columns.
pub trait Pod: Copy + Send + Sync + Eq + std::fmt::Debug + sealed::Sealed + 'static {}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u16 {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

impl Pod for u16 {}
impl Pod for u32 {}
impl Pod for u64 {}

/// A read-only `mmap(2)` window over an entire file, unmapped on drop.
///
/// Held in an [`Arc`] by every [`Column`] borrowing from it, so the
/// mapping outlives all views regardless of drop order.
#[derive(Debug)]
pub struct MmapRegion {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the region is immutable after creation (PROT_READ) and the
// kernel mapping is process-global; sharing the base pointer across
// threads is sound.
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps the whole of `file` read-only.
    ///
    /// Fails with [`io::ErrorKind::Unsupported`] on non-unix hosts and
    /// with [`io::ErrorKind::InvalidData`] for empty files (POSIX forbids
    /// zero-length mappings).
    pub fn map(file: &File) -> io::Result<MmapRegion> {
        sys::map(file)
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file contents.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe { sys::unmap(self.ptr, self.len) }
    }
}

#[cfg(unix)]
mod sys {
    use super::MmapRegion;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    pub(super) fn map(file: &File) -> io::Result<MmapRegion> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot memory-map an empty file",
            ));
        }
        if len > isize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to memory-map",
            ));
        }
        let len = len as usize;
        // SAFETY: fd is a live open file, len > 0, offset 0; a failed map
        // returns MAP_FAILED which we convert to an error.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(MmapRegion {
            ptr: ptr as *const u8,
            len,
        })
    }

    pub(super) unsafe fn unmap(ptr: *const u8, len: usize) {
        munmap(ptr as *mut core::ffi::c_void, len);
    }
}

#[cfg(not(unix))]
mod sys {
    use super::MmapRegion;
    use std::fs::File;
    use std::io;

    pub(super) fn map(_file: &File) -> io::Result<MmapRegion> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory-mapped index storage requires a unix host; use the deserializing load path",
        ))
    }

    pub(super) unsafe fn unmap(_ptr: *const u8, _len: usize) {}
}

/// One posting column: heap-owned or a zero-copy window into a mapped
/// index file. Dereferences to `&[T]` either way; cloning shares the
/// storage.
#[derive(Clone)]
pub struct Column<T: Pod> {
    repr: Repr<T>,
}

#[derive(Clone)]
enum Repr<T: Pod> {
    Owned(Arc<Vec<T>>),
    Mapped {
        region: Arc<MmapRegion>,
        /// Byte offset of the first element inside the region; the
        /// element pointer `region.ptr + offset` is aligned for `T`
        /// (checked at construction).
        offset: usize,
        /// Element count.
        len: usize,
        _t: PhantomData<T>,
    },
}

impl<T: Pod> Column<T> {
    /// A heap-owned column.
    pub fn owned(v: Vec<T>) -> Column<T> {
        Column {
            repr: Repr::Owned(Arc::new(v)),
        }
    }

    /// A zero-copy column over `len` elements starting `offset` bytes
    /// into `region`.
    ///
    /// Fails if the window overruns the region or the element pointer is
    /// not aligned for `T`. Only meaningful on little-endian hosts — the
    /// on-disk encoding is little-endian and is reinterpreted in place;
    /// callers gate on `cfg(target_endian = "little")`.
    pub fn mapped(region: Arc<MmapRegion>, offset: usize, len: usize) -> io::Result<Column<T>> {
        let size = std::mem::size_of::<T>();
        let bytes = len
            .checked_mul(size)
            .ok_or_else(|| bad_col("column length overflows"))?;
        let end = offset
            .checked_add(bytes)
            .ok_or_else(|| bad_col("column window overflows"))?;
        if end > region.len() {
            return Err(bad_col("column window exceeds the mapped file"));
        }
        if !(region.ptr as usize + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(bad_col("column window is misaligned"));
        }
        Ok(Column {
            repr: Repr::Mapped {
                region,
                offset,
                len,
                _t: PhantomData,
            },
        })
    }

    /// The column contents as a slice, whichever store backs them.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Mapped {
                region,
                offset,
                len,
                ..
            } => {
                // SAFETY: construction checked bounds and alignment; the
                // region is immutable and outlives self via the Arc; T is
                // Pod so any bit pattern is a valid value.
                unsafe { std::slice::from_raw_parts(region.ptr.add(*offset) as *const T, *len) }
            }
        }
    }

    /// Whether this column borrows from a mapped file.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// Bytes of heap this column references (0 when mapped). A buffer
    /// shared by several clones counts in full in each of them.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => v.len() * std::mem::size_of::<T>(),
            Repr::Mapped { .. } => 0,
        }
    }

    /// Bytes this column borrows from a mapped file (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(_) => 0,
            Repr::Mapped { len, .. } => len * std::mem::size_of::<T>(),
        }
    }

    /// Mutable access, copy-on-write: a mapped column is promoted to an
    /// owned copy, and an owned buffer another clone still shares is
    /// copied first. Neither the mapped bytes nor the other holders'
    /// values change.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Mapped { .. } = self.repr {
            self.repr = Repr::Owned(Arc::new(self.as_slice().to_vec()));
        }
        match &mut self.repr {
            Repr::Owned(v) => Arc::make_mut(v),
            Repr::Mapped { .. } => unreachable!("just promoted"),
        }
    }

    /// Recovers the backing `Vec` for buffer recycling: the vector itself
    /// for an unshared owned column, an empty one otherwise (a shared
    /// buffer stays with its other holders, and a map stays with its
    /// region).
    pub fn take_buffer(self) -> Vec<T> {
        match self.repr {
            Repr::Owned(v) => Arc::try_unwrap(v).unwrap_or_default(),
            Repr::Mapped { .. } => Vec::new(),
        }
    }
}

impl<T: Pod> Default for Column<T> {
    fn default() -> Self {
        Column::owned(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for Column<T> {
    fn from(v: Vec<T>) -> Self {
        Column::owned(v)
    }
}

impl<T: Pod> Deref for Column<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> PartialEq for Column<T> {
    /// Value equality: an owned and a mapped column with the same
    /// contents compare equal (bit-identity is about values, not stores).
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod> Eq for Column<T> {}

impl<T: Pod> std::fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_mapped() {
            write!(f, "Mapped")?;
        }
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// The little-endian byte image of a pod slice, for zero-copy section
/// writes. Only correct on little-endian hosts; the V4 save path is
/// gated accordingly.
#[cfg(target_endian = "little")]
pub(crate) fn pod_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding), and on a little-endian host the
    // in-memory image is the on-disk encoding.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

fn bad_col(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt walk-index file ({msg})"),
    )
}

/// Publishes a process-level storage footprint to the global metrics
/// registry: `rwd_storage_heap_bytes` and `rwd_storage_mapped_bytes`.
/// Callers (engines, servers) set this after construction, recovery and
/// each commit, typically from
/// [`WalkIndex::heap_bytes`](crate::WalkIndex::heap_bytes) /
/// [`WalkIndex::mapped_bytes`](crate::WalkIndex::mapped_bytes) sums, so
/// the metrics endpoint shows resident-vs-mapped split live.
pub fn record_storage_footprint(heap_bytes: usize, mapped_bytes: usize) {
    let m = crate::obs::metrics();
    m.storage_heap_bytes.set(heap_bytes as i64);
    m.storage_mapped_bytes.set(mapped_bytes as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_column_derefs_and_accounts() {
        let c: Column<u32> = Column::owned(vec![1, 2, 3]);
        assert_eq!(&c[..], &[1, 2, 3]);
        assert!(!c.is_mapped());
        assert_eq!(c.heap_bytes(), 12);
        assert_eq!(c.mapped_bytes(), 0);
    }

    #[test]
    fn owned_clones_share_storage_until_written() {
        let a: Column<u32> = Column::owned(vec![1, 2, 3]);
        let mut b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr(), "a clone shares the buffer");
        // Writing through a shared clone copies; the other holder keeps
        // its bytes.
        b.make_mut()[0] = 9;
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(&b[..], &[9, 2, 3]);
        // An unshared buffer is written in place and recycled whole.
        let ptr = b.as_ptr();
        b.make_mut()[1] = 8;
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.take_buffer(), vec![9, 8, 3]);
        // A shared buffer is not recycled: it stays with the other holder.
        let c = a.clone();
        assert!(c.take_buffer().is_empty());
        assert_eq!(&a[..], &[1, 2, 3]);
    }

    #[cfg(unix)]
    #[test]
    fn mapped_column_reads_file_bytes() {
        let dir = std::env::temp_dir().join(format!("rwd-storage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        let vals: Vec<u32> = (0..64).map(|i| i * 3 + 1).collect();
        {
            let mut f = File::create(&path).unwrap();
            for v in &vals {
                f.write_all(&v.to_le_bytes()).unwrap();
            }
        }
        let region = Arc::new(MmapRegion::map(&File::open(&path).unwrap()).unwrap());
        let col: Column<u32> = Column::mapped(region.clone(), 0, vals.len()).unwrap();
        assert!(col.is_mapped());
        assert_eq!(col.heap_bytes(), 0);
        assert_eq!(col.mapped_bytes(), vals.len() * 4);
        assert_eq!(col.as_slice(), &vals[..]);
        // Window beyond the file is rejected.
        assert!(Column::<u32>::mapped(region.clone(), 0, vals.len() + 1).is_err());
        // Misaligned element pointer is rejected (offset 2 within u32s).
        assert!(Column::<u32>::mapped(region.clone(), 2, 1).is_err());
        // Promotion copies the values and drops the map reference.
        let mut col2 = col.clone();
        col2.make_mut()[0] = 99;
        assert_eq!(col2[0], 99);
        assert_eq!(col[0], vals[0]);
        assert!(!col2.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn region_outlives_columns_via_arc() {
        let dir = std::env::temp_dir().join(format!("rwd-storage-arc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("col.bin");
        std::fs::write(&path, 42u64.to_le_bytes()).unwrap();
        let col: Column<u64> = {
            let region = Arc::new(MmapRegion::map(&File::open(&path).unwrap()).unwrap());
            Column::mapped(region, 0, 1).unwrap()
        };
        // The temporary Arc is gone; the column still reads.
        assert_eq!(col[0], 42);
        std::fs::remove_file(&path).ok();
    }
}
