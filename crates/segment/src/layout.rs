//! The segment file layout: framing constants, section ids and the
//! footer grammar (see DESIGN.md for the annotated diagram).
//!
//! ```text
//! ┌──────────┬────────────────────────────┬──────────────────────────┐
//! │ MAGIC 8B │ sections, each 16-aligned  │ footer                   │
//! └──────────┴────────────────────────────┴──────────────────────────┘
//! footer := table  body_crc:u32  footer_crc:u32  footer_len:u64  TAIL 8B
//! table  := count:u32 { id:u32 offset:u64 len:u64 crc:u32 }*
//! ```
//!
//! * `body_crc` covers `bytes[0..footer_start]` (magic, sections and all
//!   alignment padding);
//! * `footer_crc` covers `table ++ body_crc ++ footer_len`;
//! * every section additionally carries its own CRC in the table.
//!
//! Together with the two magics this puts every byte of the file under
//! at least one check, so any single-byte flip is detected.

use crate::blob::corrupt;
use crate::crc::{crc32, Crc32};
use xqr_xdm::{NodeKind, Result};

/// Head magic; the trailing byte is the format version.
pub(crate) const MAGIC: [u8; 8] = *b"XQRSEG\x00\x02";
/// Tail magic.
pub(crate) const TAIL: [u8; 8] = *b"\x01\x00GESRQX";
/// Format version (also baked into [`MAGIC`]).
pub(crate) const VERSION: u32 = 2;
const _: () = assert!(MAGIC[7] as u32 == VERSION);

/// Section identifiers. A well-formed segment has exactly one of each,
/// in this order. Id 3 (version 1's token stream) is retired, not reused.
pub(crate) mod section {
    pub(crate) const META: u32 = 1;
    pub(crate) const NAMES: u32 = 2;
    pub(crate) const TREE: u32 = 4;
    pub(crate) const PATHS: u32 = 5;
    pub(crate) const ELEMS: u32 = 6;
    pub(crate) const ATTRS: u32 = 7;
    pub(crate) const ALL: [u32; 6] = [META, NAMES, TREE, PATHS, ELEMS, ATTRS];
}

/// Byte span of one section within the file.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    pub offset: usize,
    pub len: usize,
}

/// Parsed section table: one span per id in [`section::ALL`] order.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Sections {
    spans: [Span; section::ALL.len()],
}

impl Sections {
    pub(crate) fn get(&self, id: u32) -> Span {
        let idx = section::ALL
            .iter()
            .position(|&s| s == id)
            .expect("known section id");
        self.spans[idx]
    }
}

/// Append the footer to a fully serialized body. `table` entries are
/// `(id, offset, len)` triples; CRCs are computed here.
pub(crate) fn write_footer(buf: &mut Vec<u8>, table: &[(u32, usize, usize)]) {
    debug_assert!(buf.len().is_multiple_of(16), "sections must be 16-aligned");
    let body_crc = crc32(buf);
    let mut tbl = Vec::with_capacity(4 + table.len() * 24);
    tbl.extend_from_slice(&(table.len() as u32).to_le_bytes());
    for &(id, offset, len) in table {
        tbl.extend_from_slice(&id.to_le_bytes());
        tbl.extend_from_slice(&(offset as u64).to_le_bytes());
        tbl.extend_from_slice(&(len as u64).to_le_bytes());
        tbl.extend_from_slice(&crc32(&buf[offset..offset + len]).to_le_bytes());
    }
    let footer_len = tbl.len() as u64;
    let mut fc = Crc32::new();
    fc.update(&tbl);
    fc.update(&body_crc.to_le_bytes());
    fc.update(&footer_len.to_le_bytes());
    let footer_crc = fc.finish();
    buf.extend_from_slice(&tbl);
    buf.extend_from_slice(&body_crc.to_le_bytes());
    buf.extend_from_slice(&footer_crc.to_le_bytes());
    buf.extend_from_slice(&footer_len.to_le_bytes());
    buf.extend_from_slice(&TAIL);
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("bounds checked"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("bounds checked"))
}

/// Verify framing, footer, body and per-section CRCs; return the section
/// table. Every failure is the coded `XQRL0006` corruption error.
pub(crate) fn verify(bytes: &[u8]) -> Result<Sections> {
    // Fixed tail: body_crc(4) + footer_crc(4) + footer_len(8) + TAIL(8).
    const TAIL_FIXED: usize = 24;
    if bytes.len() < MAGIC.len() + TAIL_FIXED + 4 {
        return Err(corrupt("segment file too short"));
    }
    if bytes[..7] != MAGIC[..7] {
        return Err(corrupt("segment head magic mismatch"));
    }
    if bytes[7] != MAGIC[7] {
        return Err(corrupt(&format!(
            "segment format version {} unsupported (this build reads {VERSION})",
            bytes[7]
        )));
    }
    if bytes[bytes.len() - 8..] != TAIL {
        return Err(corrupt("segment tail magic mismatch"));
    }
    let footer_len = read_u64(bytes, bytes.len() - 16) as usize;
    let Some(table_start) = bytes
        .len()
        .checked_sub(TAIL_FIXED)
        .and_then(|v| v.checked_sub(footer_len))
    else {
        return Err(corrupt("segment footer length out of range"));
    };
    if table_start < MAGIC.len() {
        return Err(corrupt("segment footer length out of range"));
    }
    let table = &bytes[table_start..table_start + footer_len];
    let body_crc = read_u32(bytes, bytes.len() - 24);
    let footer_crc = read_u32(bytes, bytes.len() - 20);
    let mut fc = Crc32::new();
    fc.update(table);
    fc.update(&body_crc.to_le_bytes());
    fc.update(&(footer_len as u64).to_le_bytes());
    if fc.finish() != footer_crc {
        return Err(corrupt("segment footer checksum mismatch"));
    }
    // Parse the (footer-protected) table; bounds are still fully checked
    // so a writer bug cannot turn into a panic.
    if table.len() < 4 {
        return Err(corrupt("segment section table truncated"));
    }
    let count = read_u32(table, 0) as usize;
    if table.len() != 4 + count * 24 || count != section::ALL.len() {
        return Err(corrupt("segment section table malformed"));
    }
    let mut sections = Sections::default();
    let mut crcs = [0u32; section::ALL.len()];
    let mut seen = [false; section::ALL.len()];
    for i in 0..count {
        let at = 4 + i * 24;
        let id = read_u32(table, at);
        let offset = read_u64(table, at + 4) as usize;
        let len = read_u64(table, at + 12) as usize;
        let Some(idx) = section::ALL.iter().position(|&s| s == id) else {
            return Err(corrupt("segment section id unknown"));
        };
        if seen[idx] {
            return Err(corrupt("segment section id duplicated"));
        }
        seen[idx] = true;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt("segment section span overflow"))?;
        if offset < MAGIC.len() || end > table_start {
            return Err(corrupt("segment section span out of bounds"));
        }
        crcs[idx] = read_u32(table, at + 20);
        sections.spans[idx] = Span { offset, len };
    }
    // One pass over the body: `body_crc` covers every byte before the
    // footer (sections and padding alike), and the per-section CRCs are
    // themselves under `footer_crc`, so this single check detects any
    // flip. The per-section recomputation runs only to *name* the
    // corrupt section once the cheap check has failed — verification is
    // on the cold-start path and must not read the file twice.
    if crc32(&bytes[..table_start]) != body_crc {
        for (idx, &id) in section::ALL.iter().enumerate() {
            let Span { offset, len } = sections.spans[idx];
            if crc32(&bytes[offset..offset + len]) != crcs[idx] {
                return Err(corrupt(&format!("segment section {id} checksum mismatch")));
            }
        }
        return Err(corrupt("segment body checksum mismatch"));
    }
    Ok(sections)
}

/// Stable on-disk encoding of [`NodeKind`].
pub(crate) fn kind_to_u8(kind: NodeKind) -> u8 {
    match kind {
        NodeKind::Document => 0,
        NodeKind::Element => 1,
        NodeKind::Attribute => 2,
        NodeKind::Text => 3,
        NodeKind::Namespace => 4,
        NodeKind::ProcessingInstruction => 5,
        NodeKind::Comment => 6,
    }
}

pub(crate) fn kind_from_u8(v: u8) -> Result<NodeKind> {
    Ok(match v {
        0 => NodeKind::Document,
        1 => NodeKind::Element,
        2 => NodeKind::Attribute,
        3 => NodeKind::Text,
        4 => NodeKind::Namespace,
        5 => NodeKind::ProcessingInstruction,
        6 => NodeKind::Comment,
        _ => return Err(corrupt("segment node kind out of range")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_segment() -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        let mut table = Vec::new();
        for &id in &section::ALL {
            while !buf.len().is_multiple_of(16) {
                buf.push(0);
            }
            let offset = buf.len();
            buf.extend_from_slice(&[id as u8; 16]);
            table.push((id, offset, 16));
        }
        write_footer(&mut buf, &table);
        buf
    }

    #[test]
    fn verify_accepts_wellformed() {
        let buf = tiny_segment();
        let sections = verify(&buf).unwrap();
        assert_eq!(sections.get(section::TREE).len, 16);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let buf = tiny_segment();
        for i in 0..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x40;
            let err = verify(&copy).expect_err(&format!("flip at {i} accepted"));
            assert_eq!(err.code, xqr_xdm::ErrorCode::CorruptSegment);
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let buf = tiny_segment();
        for len in 0..buf.len() {
            assert!(verify(&buf[..len]).is_err(), "truncation to {len} accepted");
        }
    }

    #[test]
    fn kind_mapping_roundtrips() {
        for k in [
            NodeKind::Document,
            NodeKind::Element,
            NodeKind::Attribute,
            NodeKind::Text,
            NodeKind::Namespace,
            NodeKind::ProcessingInstruction,
            NodeKind::Comment,
        ] {
            assert_eq!(kind_from_u8(kind_to_u8(k)).unwrap(), k);
        }
        assert!(kind_from_u8(7).is_err());
    }
}
