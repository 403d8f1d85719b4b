//! Segment verification and loading: the cold-start path.
//!
//! [`Segment::open`] reads the file (failpoint `segment.read`), verifies
//! all checksums (failpoint `segment.verify`) and parses the META
//! section; any failure is the coded, non-retryable `XQRL0006
//! CorruptSegment` error. [`Segment::load`] then reassembles the
//! [`Document`] from the TREE arrays and the [`DocIndex`] from the PATHS,
//! ELEMS and ATTRS sections — no XML parsing, no index build. The result
//! is the same heap index [`DocIndex::build`] produces; the file buffer
//! is dropped with the `Segment`.

use crate::blob::{corrupt, ByteReader};
use crate::layout::{self, kind_from_u8, section, Sections, VERSION};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use xqr_index::{DocIndex, PathDict, PathId, Postings};
use xqr_joins::Labeled;
use xqr_store::{DocPartsOwned, Document, NodeId};
use xqr_tokenstream::StringPool;
use xqr_xdm::{Error, NameId, NamePool, Result};

/// One on-disk label record: node, start, end (`u32`), level (`u16`),
/// two zero pad bytes.
const LABEL_BYTES: usize = 16;

/// A verified segment file, held in memory until it is loaded.
pub struct Segment {
    data: Vec<u8>,
    sections: Sections,
    uri: Option<String>,
    node_count: u64,
    entry_count: u64,
}

impl Segment {
    /// Read and verify a segment file.
    pub fn open(path: &Path) -> Result<Segment> {
        xqr_faults::faultpoint!("segment.read");
        let data = std::fs::read(path).map_err(|e| match e.kind() {
            // A referenced-but-missing file is a broken catalog, not a
            // transient condition: quarantine it.
            std::io::ErrorKind::NotFound => corrupt("segment file missing"),
            _ => Error::unavailable(format!("segment open: {e}")),
        })?;
        Self::from_bytes(data)
    }

    /// Verify an in-memory blob.
    pub fn from_bytes(data: Vec<u8>) -> Result<Segment> {
        xqr_faults::faultpoint!("segment.verify");
        let sections = layout::verify(&data)?;
        let span = sections.get(section::META);
        let mut r = ByteReader::new(&data[span.offset..span.offset + span.len]);
        if r.u32()? != VERSION {
            return Err(corrupt("segment format version unsupported"));
        }
        let uri = r.opt_str()?.map(String::from);
        let node_count = r.u64()?;
        let entry_count = r.u64()?;
        r.finish()?;
        Ok(Segment {
            data,
            sections,
            uri,
            node_count,
            entry_count,
        })
    }

    pub fn uri(&self) -> Option<&str> {
        self.uri.as_deref()
    }

    pub fn node_count(&self) -> u64 {
        self.node_count
    }

    /// Whole-file size in bytes.
    pub fn file_bytes(&self) -> usize {
        self.data.len()
    }

    fn sec(&self, id: u32) -> &[u8] {
        let s = self.sections.get(id);
        &self.data[s.offset..s.offset + s.len]
    }

    /// Reassemble the document from the TREE arrays and its index from
    /// the stored path dictionary and inverted lists (O(n) decoding, no
    /// parsing, no index build).
    pub fn load(&self, names: &Arc<NamePool>) -> Result<(Arc<Document>, DocIndex)> {
        let live = self.remap_names(names)?;
        let doc = self.load_document(names, &live)?;
        let index = self.load_index(&live)?;
        Ok((doc, index))
    }

    /// Intern every segment-local name into the live pool; index = seg id.
    fn remap_names(&self, names: &Arc<NamePool>) -> Result<Vec<NameId>> {
        let mut r = ByteReader::new(self.sec(section::NAMES));
        let count = r.u32()? as usize;
        if count > r.remaining() {
            return Err(corrupt("segment name count out of range"));
        }
        let mut live = Vec::with_capacity(count);
        for i in 0..count {
            let flags = r.u8()?;
            if flags & !3 != 0 {
                return Err(corrupt("segment name flags out of range"));
            }
            let ns = if flags & 1 != 0 { Some(r.str()?) } else { None };
            let prefix = if flags & 2 != 0 { Some(r.str()?) } else { None };
            let local = r.str()?;
            let q = match (ns, prefix) {
                (Some(ns), Some(p)) => xqr_xdm::QName::prefixed(ns, p, local),
                (Some(ns), None) => xqr_xdm::QName::ns(ns, local),
                (None, None) => xqr_xdm::QName::local(local),
                (None, Some(_)) => {
                    return Err(corrupt("segment name has prefix without namespace"))
                }
            };
            let id = names.intern(&q);
            if i == 0 && !id.is_none() {
                return Err(corrupt(
                    "segment name table must start with the absent name",
                ));
            }
            live.push(id);
        }
        r.finish()?;
        Ok(live)
    }

    fn load_document(&self, names: &Arc<NamePool>, live: &[NameId]) -> Result<Arc<Document>> {
        let mut r = ByteReader::new(self.sec(section::TREE));
        let n = r.u64()? as usize;
        if n != self.node_count as usize || n > r.remaining() {
            return Err(corrupt("segment node count out of range"));
        }
        let mut kinds = Vec::with_capacity(n);
        for _ in 0..n {
            kinds.push(kind_from_u8(r.u8()?)?);
        }
        let mut node_names = Vec::with_capacity(n);
        for _ in 0..n {
            let seg = r.u32()? as usize;
            node_names.push(
                *live
                    .get(seg)
                    .ok_or_else(|| corrupt("segment node name id out of range"))?,
            );
        }
        let u32_array = |r: &mut ByteReader| -> Result<Vec<u32>> {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u32()?);
            }
            Ok(v)
        };
        let parents = u32_array(&mut r)?;
        let next_siblings = u32_array(&mut r)?;
        let first_children = u32_array(&mut r)?;
        let subtree_ends = u32_array(&mut r)?;
        let mut levels = Vec::with_capacity(n);
        for _ in 0..n {
            levels.push(r.u16()?);
        }
        let values = u32_array(&mut r)?;
        let str_count = r.u32()? as usize;
        if str_count > r.remaining() {
            return Err(corrupt("segment string count out of range"));
        }
        let mut strings = Vec::with_capacity(str_count);
        for _ in 0..str_count {
            strings.push(r.str()?);
        }
        r.finish()?;
        Document::from_raw_parts(
            names.clone(),
            DocPartsOwned {
                kinds,
                node_names,
                parents,
                next_siblings,
                first_children,
                subtree_ends,
                levels,
                values,
                strings: StringPool::from_strings(strings),
                uri: self.uri.clone(),
            },
        )
        .map_err(|e| corrupt(&format!("segment tree invalid: {e}")))
    }

    fn load_index(&self, live: &[NameId]) -> Result<DocIndex> {
        let paths = self.load_paths(live)?;
        let (elements, e_total) = self.load_postings(section::ELEMS, live, paths.len())?;
        let (attributes, a_total) = self.load_postings(section::ATTRS, live, paths.len())?;
        if e_total + a_total != self.entry_count as usize {
            return Err(corrupt("segment entry count mismatch"));
        }
        Ok(DocIndex::from_parts(paths, elements, attributes))
    }

    /// Rebuild the path dictionary by re-interning rows in id order;
    /// parents precede children, so ids come out identical to the ones
    /// the inverted lists were written with.
    fn load_paths(&self, live: &[NameId]) -> Result<PathDict> {
        let mut r = ByteReader::new(self.sec(section::PATHS));
        let count = r.u32()?;
        if count as usize > r.remaining() {
            return Err(corrupt("segment path count out of range"));
        }
        let mut dict = PathDict::new();
        for i in 0..count {
            let parent_raw = r.u32()?;
            let seg = r.u32()? as usize;
            let name = *live
                .get(seg)
                .ok_or_else(|| corrupt("segment path name id out of range"))?;
            let parent = if parent_raw == u32::MAX {
                None
            } else if parent_raw < i {
                Some(PathId(parent_raw))
            } else {
                return Err(corrupt("segment path parent out of order"));
            };
            if dict.intern(parent, name) != PathId(i) {
                return Err(corrupt("segment path rows not canonical"));
            }
        }
        r.finish()?;
        Ok(dict)
    }

    /// Decode one inverted-list section (ELEMS or ATTRS) into per-name
    /// postings, with their total entry count.
    fn load_postings(
        &self,
        id: u32,
        live: &[NameId],
        path_count: usize,
    ) -> Result<(HashMap<NameId, Postings>, usize)> {
        let span = self.sections.get(id);
        let sec = self.sec(id);
        let mut r = ByteReader::new(sec);
        let name_count = r.u32()? as usize;
        if name_count > sec.len() {
            return Err(corrupt("segment postings directory out of range"));
        }
        let mut dir: Vec<(NameId, usize)> = Vec::with_capacity(name_count);
        let mut total = 0u32;
        let mut prev_seg = None;
        for _ in 0..name_count {
            let seg = r.u32()?;
            let count = r.u32()?;
            if prev_seg.is_some_and(|p| seg <= p) {
                return Err(corrupt("segment postings directory not sorted"));
            }
            prev_seg = Some(seg);
            let name = *live
                .get(seg as usize)
                .ok_or_else(|| corrupt("segment postings name id out of range"))?;
            dir.push((name, count as usize));
            total = total
                .checked_add(count)
                .ok_or_else(|| corrupt("segment postings count overflow"))?;
        }
        let total = total as usize;
        // Zero padding between the directory and the 16-aligned labels.
        let pad = (16 - (span.offset + 4 + 8 * name_count) % 16) % 16;
        if r.take(pad)?.iter().any(|&b| b != 0) {
            return Err(corrupt("segment postings padding not zero"));
        }
        let label_bytes = total
            .checked_mul(LABEL_BYTES)
            .ok_or_else(|| corrupt("segment postings size overflow"))?;
        let labels = r.take(label_bytes)?;
        let path_bytes = r.take(total * 4)?;
        r.finish()?;
        let mut path_ids = path_bytes
            .chunks_exact(4)
            .map(|b| PathId(u32::from_le_bytes(b.try_into().expect("chunked by 4"))));
        if path_ids.clone().any(|p| p.0 as usize >= path_count) {
            return Err(corrupt("segment postings path id out of range"));
        }
        let mut labels = labels.chunks_exact(LABEL_BYTES).map(|b| {
            let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("sized"));
            Labeled {
                node: NodeId(u32_at(0)),
                start: u32_at(4),
                end: u32_at(8),
                level: u16::from_le_bytes([b[12], b[13]]),
            }
        });
        let mut map = HashMap::with_capacity(dir.len());
        for (name, count) in dir {
            let postings = Postings::new(
                labels.by_ref().take(count).collect(),
                path_ids.by_ref().take(count).collect(),
            );
            if map.insert(name, postings).is_some() {
                return Err(corrupt("segment postings name duplicated"));
            }
        }
        Ok((map, total))
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Segment({} nodes, {} entries, {} bytes)",
            self.node_count,
            self.entry_count,
            self.data.len()
        )
    }
}
