//! Read-only file mapping without a libc dependency.
//!
//! On Linux/x86_64 we issue the `mmap`/`munmap` syscalls directly
//! (read-only, private); everywhere else — or whenever the syscall
//! fails — we fall back to reading the file into an 8-byte-aligned heap
//! buffer. Callers only ever see [`MappedBytes::bytes`], so the two
//! backings are interchangeable; the heap path merely loses the
//! lazy-paging benefit, never correctness.

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// An immutable byte region backed by either a file mapping or an
/// 8-byte-aligned heap buffer.
pub(crate) struct MappedBytes {
    /// Base of the mapping when `mapped`; dangling otherwise.
    ptr: *const u8,
    len: usize,
    mapped: bool,
    /// Heap backing (`u64` elements pin 8-byte alignment, which is what
    /// the zero-copy `&[Labeled]` casts in the reader rely on).
    heap: Vec<u64>,
}

// SAFETY: the region is immutable for the lifetime of the value (PROT_READ
// private mapping or an owned, never-mutated heap buffer), so shared
// access from multiple threads is sound.
unsafe impl Send for MappedBytes {}
unsafe impl Sync for MappedBytes {}

impl MappedBytes {
    /// Map (or read) a whole file.
    pub(crate) fn open(path: &Path) -> std::io::Result<MappedBytes> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            if let Some(ptr) = sys_mmap_readonly(file.as_raw_fd(), len) {
                return Ok(MappedBytes {
                    ptr,
                    len,
                    mapped: true,
                    heap: Vec::new(),
                });
            }
        }
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(Self::from_vec(buf))
    }

    /// Wrap an in-memory buffer (test and fallback path), re-housing it
    /// in an 8-byte-aligned backing.
    pub(crate) fn from_vec(bytes: Vec<u8>) -> MappedBytes {
        let len = bytes.len();
        let mut heap = vec![0u64; len.div_ceil(8)];
        if len > 0 {
            // SAFETY: the destination holds at least `len` bytes and the
            // regions cannot overlap (freshly allocated).
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), heap.as_mut_ptr() as *mut u8, len);
            }
        }
        MappedBytes {
            ptr: std::ptr::null(),
            len,
            mapped: false,
            heap,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Was this region served by a real `mmap` (vs the heap fallback)?
    pub(crate) fn is_mapped(&self) -> bool {
        self.mapped
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        let base = if self.mapped {
            self.ptr
        } else {
            self.heap.as_ptr() as *const u8
        };
        // SAFETY: `base..base+len` is a live, immutable allocation (the
        // mapping is unmapped only in Drop; the heap Vec is owned).
        unsafe { std::slice::from_raw_parts(base, self.len) }
    }
}

impl Drop for MappedBytes {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if self.mapped {
            sys_munmap(self.ptr, self.len);
        }
    }
}

impl std::fmt::Debug for MappedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedBytes({} bytes, {})",
            self.len,
            if self.mapped { "mmap" } else { "heap" }
        )
    }
}

/// Raw read-only private `mmap(2)`. Returns `None` on any syscall error
/// (the caller falls back to heap reads).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_mmap_readonly(fd: i32, len: usize) -> Option<*const u8> {
    const SYS_MMAP: usize = 9;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    let ret: isize;
    // SAFETY: a well-formed mmap syscall; the kernel validates fd/len and
    // reports failure through the return value, which we range-check.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MMAP => ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    // Errors come back as -errno in [-4095, -1].
    if (-4095..0).contains(&ret) {
        None
    } else {
        Some(ret as *const u8)
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sys_munmap(ptr: *const u8, len: usize) {
    const SYS_MUNMAP: usize = 11;
    let _ret: isize;
    // SAFETY: unmaps exactly the region returned by sys_mmap_readonly.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MUNMAP => _ret,
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xqr-mmap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("f.bin")
    }

    #[test]
    fn maps_file_contents() {
        let path = scratch("map");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut f = File::create(&path).unwrap();
        f.write_all(&payload).unwrap();
        drop(f);
        let m = MappedBytes::open(&path).unwrap();
        assert_eq!(m.bytes(), &payload[..]);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert!(m.is_mapped());
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = scratch("empty");
        File::create(&path).unwrap();
        let m = MappedBytes::open(&path).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(m.bytes(), &[] as &[u8]);
    }

    #[test]
    fn heap_backing_is_8_aligned() {
        let m = MappedBytes::from_vec(vec![7u8; 33]);
        assert!(!m.is_mapped());
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0);
        assert_eq!(m.bytes(), &[7u8; 33][..]);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(MappedBytes::open(Path::new("/nonexistent/xqr-seg")).is_err());
    }
}
