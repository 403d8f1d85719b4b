//! Little-endian byte-cursor helpers shared by the segment writer and
//! reader. The reader is fully bounds-checked: every malformed read
//! surfaces as the coded `XQRL0006 CorruptSegment` error, never a panic
//! — the last line of defence should a corruption slip past the CRCs
//! (it cannot, but the reader does not rely on that).

use xqr_xdm::{Error, Result};

pub(crate) fn corrupt(msg: &str) -> Error {
    Error::corrupt_segment(msg)
}

/// Append-only little-endian writer over a growing `Vec<u8>`; `buf.len()`
/// is the absolute file offset, which is what the 16-byte section
/// alignment is computed against.
#[derive(Default)]
pub(crate) struct ByteWriter {
    pub buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn offset(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Zero-pad to the next 16-byte file boundary.
    pub(crate) fn align16(&mut self) {
        while !self.buf.len().is_multiple_of(16) {
            self.buf.push(0);
        }
    }
}

/// Bounds-checked little-endian cursor over a borrowed byte slice.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        if len > self.remaining() {
            return Err(corrupt("segment section truncated"));
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| corrupt("segment string is not UTF-8"))
    }

    pub(crate) fn opt_str(&mut self) -> Result<Option<&'a str>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(corrupt("segment option tag out of range")),
        }
    }

    /// The section must be fully consumed — trailing garbage is treated
    /// as corruption, the same as a short read.
    pub(crate) fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(corrupt("segment section has trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.str("héllo");
        w.opt_str(None);
        w.opt_str(Some("x"));
        let mut r = ByteReader::new(&w.buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.opt_str().unwrap(), Some("x"));
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_coded_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.u32().unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::CorruptSegment);
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let r = ByteReader::new(&[0]);
        assert!(r.finish().is_err());
    }

    #[test]
    fn align16_pads_with_zeros() {
        let mut w = ByteWriter::new();
        w.bytes(&[1, 2, 3]);
        w.align16();
        assert_eq!(w.buf.len(), 16);
        assert!(w.buf[3..].iter().all(|&b| b == 0));
    }
}
