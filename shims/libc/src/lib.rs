//! Offline stand-in for the `libc` crate.
//!
//! The build environment has no registry access, so this shim declares
//! exactly the subset the workspace uses: the memory-mapping calls behind
//! `gass-core::mmap`. No code is vendored: `std` already links the
//! platform C library, so an `extern "C"` block is all a binding needs —
//! the loader resolves the symbols from the same `libc.so`/`libSystem`
//! the real crate would.
//!
//! Constants are the Linux/macOS values (they agree on everything below
//! except `MAP_PRIVATE`, where both use `0x02`). The declarations are
//! Unix-only; on other targets the crate compiles to just the type
//! aliases so dependents can keep a single manifest.

#![warn(missing_docs)]
#![allow(non_camel_case_types)] // C type names, matching the real crate

/// C `int`.
pub type c_int = i32;
/// C `void` (pointer target only).
pub type c_void = core::ffi::c_void;
/// C `size_t`.
pub type size_t = usize;
/// C `off_t` (64-bit file offsets on every supported target).
pub type off_t = i64;

/// Pages may be read.
pub const PROT_READ: c_int = 0x1;
/// Modifications are private (copy-on-write).
pub const MAP_PRIVATE: c_int = 0x02;
/// `mmap` failure sentinel.
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
/// Expect random page references (curb readahead).
pub const MADV_RANDOM: c_int = 1;
/// Expect sequential page references (aggressive readahead).
pub const MADV_SEQUENTIAL: c_int = 2;
/// Expect access soon (fault pages in ahead of use).
pub const MADV_WILLNEED: c_int = 3;

#[cfg(unix)]
extern "C" {
    /// Maps `len` bytes of the object behind `fd` at `offset`.
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    /// Unmaps a region previously mapped with [`mmap`].
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    /// Advises the kernel about expected access patterns for a region.
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
}
