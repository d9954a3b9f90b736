//! Raw page buffers and little-endian field accessors.

use crate::PAGE_SIZE;

/// A heap-allocated, zero-initialized page buffer.
#[derive(Clone)]
pub struct PageBuf(Box<[u8; PAGE_SIZE]>);

impl PageBuf {
    /// A fresh zeroed page.
    pub fn zeroed() -> Self {
        Self(Box::new([0u8; PAGE_SIZE]))
    }

    /// Read-only view of the raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.0
    }

    /// Mutable view of the raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.0
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl std::fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PageBuf(..)")
    }
}

/// Copies the `N` bytes at `off` into an array. The slice taken is
/// exactly `N` bytes long, so the conversion cannot fail (the range
/// index is the only panic site, as with any accessor below).
#[inline]
#[expect(
    clippy::unwrap_used,
    reason = "a slice of length N always converts to [u8; N]"
)]
pub(crate) fn arr<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    buf[off..off + N].try_into().unwrap()
}

/// Reads a `u16` at byte offset `off`.
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(arr(buf, off))
}

/// Writes a `u16` at byte offset `off`.
#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` at byte offset `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(arr(buf, off))
}

/// Writes a `u32` at byte offset `off`.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u64` at byte offset `off`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(arr(buf, off))
}

/// Writes a `u64` at byte offset `off`.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads an `f64` at byte offset `off`.
#[inline]
pub fn get_f64(buf: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(arr(buf, off))
}

/// Writes an `f64` at byte offset `off`.
#[inline]
pub fn put_f64(buf: &mut [u8], off: usize, v: f64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page() {
        let p = PageBuf::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
        assert_eq!(p.bytes().len(), PAGE_SIZE);
    }

    #[test]
    fn field_roundtrips() {
        let mut p = PageBuf::zeroed();
        put_u16(p.bytes_mut(), 0, 0xBEEF);
        put_u32(p.bytes_mut(), 2, 0xDEAD_BEEF);
        put_u64(p.bytes_mut(), 6, u64::MAX - 7);
        put_f64(p.bytes_mut(), 14, -123.456);
        assert_eq!(get_u16(p.bytes(), 0), 0xBEEF);
        assert_eq!(get_u32(p.bytes(), 2), 0xDEAD_BEEF);
        assert_eq!(get_u64(p.bytes(), 6), u64::MAX - 7);
        assert_eq!(get_f64(p.bytes(), 14), -123.456);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = PageBuf::zeroed();
        let b = a.clone();
        put_u16(a.bytes_mut(), 0, 7);
        assert_eq!(get_u16(b.bytes(), 0), 0);
    }
}
