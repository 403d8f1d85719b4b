//! Segment verification and loading: the cold-start fast path.
//!
//! [`Segment::open`] maps the file (failpoint `segment.mmap`), verifies
//! all checksums (failpoint `segment.verify`) and parses the META
//! section; any failure is the coded, non-retryable `XQRL0006
//! CorruptSegment` error. [`Segment::load`] then reassembles the
//! [`Document`] from the TREE arrays (no XML parsing) and builds a
//! [`MappedIndex`] whose inverted lists are **zero-copy slices into the
//! mapped file** — `Labeled` is `repr(C)`, 16 bytes, align 4, and the
//! writer 16-aligns every label region, so the cast is a pointer
//! reinterpretation. If alignment cannot be guaranteed (exotic fallback
//! backing), the lists are materialized on the heap instead; behavior is
//! identical either way.

use crate::blob::{corrupt, ByteReader};
use crate::layout::{self, kind_from_u8, section, Sections, VERSION};
use crate::mmap::MappedBytes;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use xqr_joins::Labeled;
use xqr_store::{DocPartsOwned, Document};
use xqr_tokenstream::StringPool;
use xqr_xdm::{Error, NameId, NamePool, Result};

const LABEL_BYTES: usize = std::mem::size_of::<Labeled>();
// The zero-copy casts below are only sound with this exact layout; a
// change to Labeled must bump the segment format version.
const _: () = assert!(std::mem::size_of::<Labeled>() == 16);
const _: () = assert!(std::mem::align_of::<Labeled>() <= 4);

/// A verified, mapped segment file. Cheap to clone sections out of; the
/// underlying mapping is shared by every view loaded from it.
pub struct Segment {
    data: Arc<MappedBytes>,
    sections: Sections,
    uri: Option<String>,
    node_count: u64,
    entry_count: u64,
}

impl Segment {
    /// Map and verify a segment file.
    pub fn open(path: &Path) -> Result<Segment> {
        xqr_faults::faultpoint!("segment.mmap");
        let data = MappedBytes::open(path).map_err(|e| match e.kind() {
            // A referenced-but-missing file is a broken catalog, not a
            // transient condition: quarantine it.
            std::io::ErrorKind::NotFound => corrupt("segment file missing"),
            _ => Error::unavailable(format!("segment open: {e}")),
        })?;
        Self::new(Arc::new(data))
    }

    /// Verify an in-memory blob (tests and the write-then-verify path).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Segment> {
        Self::new(Arc::new(MappedBytes::from_vec(bytes)))
    }

    fn new(data: Arc<MappedBytes>) -> Result<Segment> {
        xqr_faults::faultpoint!("segment.verify");
        let sections = layout::verify(data.bytes())?;
        let span = sections.get(section::META);
        let mut r = ByteReader::new(&data.bytes()[span.offset..span.offset + span.len]);
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

    /// Whole-file size: what the catalog charges against its byte budget
    /// for a segment-backed document.
    pub fn file_bytes(&self) -> usize {
        self.data.len()
    }

    /// Is the backing a real `mmap` (vs heap fallback)?
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    fn sec(&self, id: u32) -> &[u8] {
        let s = self.sections.get(id);
        &self.data.bytes()[s.offset..s.offset + s.len]
    }

    /// Reassemble the document and its index. The document is rebuilt
    /// from the TREE arrays (O(n) memcpy-ish, no parsing); the index
    /// serves straight from the mapping.
    pub fn load(&self, names: &Arc<NamePool>) -> Result<(Arc<Document>, Arc<MappedIndex>)> {
        let live = self.remap_names(names)?;
        let doc = self.load_document(names, &live)?;
        let index = self.load_index(&live)?;
        Ok((doc, Arc::new(index)))
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

    fn load_index(&self, live: &[NameId]) -> Result<MappedIndex> {
        let paths = self.load_paths(live)?;
        let (elements, e_total) = self.load_postings(section::ELEMS, live, paths.len())?;
        let (attributes, a_total) = self.load_postings(section::ATTRS, live, paths.len())?;
        if e_total + a_total != self.entry_count as usize {
            return Err(corrupt("segment entry count mismatch"));
        }
        Ok(MappedIndex {
            data: self.data.clone(),
            paths,
            elements,
            attributes,
            entry_count: self.entry_count as usize,
        })
    }

    /// Rebuild the path dictionary by re-interning rows in id order;
    /// parents precede children, so ids come out identical to the ones
    /// the inverted lists were written with.
    fn load_paths(&self, live: &[NameId]) -> Result<xqr_index::PathDict> {
        let mut r = ByteReader::new(self.sec(section::PATHS));
        let count = r.u32()?;
        if count as usize > r.remaining() {
            return Err(corrupt("segment path count out of range"));
        }
        let mut dict = xqr_index::PathDict::new();
        for i in 0..count {
            let parent_raw = r.u32()?;
            let seg = r.u32()? as usize;
            let name = *live
                .get(seg)
                .ok_or_else(|| corrupt("segment path name id out of range"))?;
            let parent = if parent_raw == u32::MAX {
                None
            } else if parent_raw < i {
                Some(xqr_index::PathId(parent_raw))
            } else {
                return Err(corrupt("segment path parent out of order"));
            };
            if dict.intern(parent, name) != xqr_index::PathId(i) {
                return Err(corrupt("segment path rows not canonical"));
            }
        }
        r.finish()?;
        Ok(dict)
    }

    fn load_postings(
        &self,
        id: u32,
        live: &[NameId],
        path_count: usize,
    ) -> Result<(PostingsTable, usize)> {
        let span = self.sections.get(id);
        let sec = &self.data.bytes()[span.offset..span.offset + span.len];
        let mut r = ByteReader::new(sec);
        let name_count = r.u32()? as usize;
        if name_count > sec.len() {
            return Err(corrupt("segment postings directory out of range"));
        }
        let mut dir: HashMap<NameId, (u32, u32)> = HashMap::with_capacity(name_count);
        let mut order: Vec<(NameId, u32, u32)> = Vec::with_capacity(name_count);
        let mut offset = 0u32;
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
            if dir.insert(name, (offset, count)).is_some() {
                return Err(corrupt("segment postings name duplicated"));
            }
            order.push((name, offset, count));
            offset = offset
                .checked_add(count)
                .ok_or_else(|| corrupt("segment postings count overflow"))?;
        }
        let total = offset as usize;
        // Zero padding between the directory and the 16-aligned labels.
        let pad = (16 - (span.offset + 4 + 8 * name_count) % 16) % 16;
        if r.take(pad)?.iter().any(|&b| b != 0) {
            return Err(corrupt("segment postings padding not zero"));
        }
        let labels_off = span.offset + 4 + 8 * name_count + pad;
        let label_bytes = total
            .checked_mul(LABEL_BYTES)
            .ok_or_else(|| corrupt("segment postings size overflow"))?;
        let labels = r.take(label_bytes)?;
        let path_bytes = r.take(total * 4)?;
        r.finish()?;
        for chunk in path_bytes.chunks_exact(4) {
            let p = u32::from_le_bytes(chunk.try_into().expect("chunked by 4")) as usize;
            if p >= path_count {
                return Err(corrupt("segment postings path id out of range"));
            }
        }
        let aligned = (labels.as_ptr() as usize).is_multiple_of(std::mem::align_of::<Labeled>());
        let table = if aligned {
            PostingsTable::Mapped {
                labels_off,
                paths_off: labels_off + label_bytes,
                dir,
            }
        } else {
            // Alignment fallback: materialize owned lists. Same answers,
            // no zero-copy.
            let map = order
                .into_iter()
                .map(|(name, off, count)| {
                    let mut ls = Vec::with_capacity(count as usize);
                    let mut ps = Vec::with_capacity(count as usize);
                    for i in off..off + count {
                        let at = i as usize * LABEL_BYTES;
                        let mut lr = ByteReader::new(&labels[at..at + LABEL_BYTES]);
                        ls.push(Labeled {
                            node: xqr_store::NodeId(lr.u32().expect("sized")),
                            start: lr.u32().expect("sized"),
                            end: lr.u32().expect("sized"),
                            level: lr.u16().expect("sized"),
                        });
                        let pat = i as usize * 4;
                        ps.push(xqr_index::PathId(u32::from_le_bytes(
                            path_bytes[pat..pat + 4].try_into().expect("sized"),
                        )));
                    }
                    (name, (ls, ps))
                })
                .collect();
            PostingsTable::Owned { map }
        };
        Ok((table, total))
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

/// Per-QName inverted lists served from the mapping (or owned fallback).
enum PostingsTable {
    Mapped {
        /// Absolute file offset of the label records (16-aligned).
        labels_off: usize,
        /// Absolute file offset of the path-id array.
        paths_off: usize,
        /// name → (entry offset, entry count) within the label region.
        dir: HashMap<NameId, (u32, u32)>,
    },
    Owned {
        map: HashMap<NameId, (Vec<Labeled>, Vec<xqr_index::PathId>)>,
    },
}

const EMPTY: &[Labeled] = &[];

/// Reinterpret a 16-aligned label region as typed records.
///
/// SAFETY preconditions (established at load): `bytes` is 4-aligned and
/// a multiple of 16 long; `Labeled` is `repr(C)` with only integer
/// fields (every bit pattern valid) and `NodeId` is `repr(transparent)`
/// over `u32`.
fn cast_labels(bytes: &[u8]) -> &[Labeled] {
    debug_assert_eq!(bytes.len() % LABEL_BYTES, 0);
    debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<Labeled>(), 0);
    unsafe {
        std::slice::from_raw_parts(bytes.as_ptr() as *const Labeled, bytes.len() / LABEL_BYTES)
    }
}

impl PostingsTable {
    fn labels<'a>(&'a self, data: &'a [u8], name: NameId) -> &'a [Labeled] {
        match self {
            PostingsTable::Mapped {
                labels_off, dir, ..
            } => dir.get(&name).map_or(EMPTY, |&(off, count)| {
                let start = labels_off + off as usize * LABEL_BYTES;
                cast_labels(&data[start..start + count as usize * LABEL_BYTES])
            }),
            PostingsTable::Owned { map } => map.get(&name).map_or(EMPTY, |(l, _)| &l[..]),
        }
    }

    fn on_paths(&self, data: &[u8], name: NameId, keep: &[bool]) -> Vec<Labeled> {
        let hit = |p: u32| keep.get(p as usize).copied().unwrap_or(false);
        match self {
            PostingsTable::Mapped {
                labels_off,
                paths_off,
                dir,
            } => {
                let Some(&(off, count)) = dir.get(&name) else {
                    return Vec::new();
                };
                let lstart = labels_off + off as usize * LABEL_BYTES;
                let labels = cast_labels(&data[lstart..lstart + count as usize * LABEL_BYTES]);
                let pstart = paths_off + off as usize * 4;
                let paths = &data[pstart..pstart + count as usize * 4];
                labels
                    .iter()
                    .zip(paths.chunks_exact(4))
                    .filter(|(_, p)| hit(u32::from_le_bytes((*p).try_into().expect("sized"))))
                    .map(|(l, _)| *l)
                    .collect()
            }
            PostingsTable::Owned { map } => map.get(&name).map_or_else(Vec::new, |(ls, ps)| {
                ls.iter()
                    .zip(ps)
                    .filter(|(_, p)| hit(p.0))
                    .map(|(l, _)| *l)
                    .collect()
            }),
        }
    }
}

/// The mmap-backed structural index: implements [`xqr_index::IndexedAccess`]
/// over label slices that live in the mapped segment file, so query
/// execution after a cold start touches only the pages it actually reads.
pub struct MappedIndex {
    data: Arc<MappedBytes>,
    paths: xqr_index::PathDict,
    elements: PostingsTable,
    attributes: PostingsTable,
    entry_count: usize,
}

impl MappedIndex {
    /// True when the inverted lists are zero-copy views into the mapping
    /// (vs the owned alignment fallback).
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.elements, PostingsTable::Mapped { .. })
            && matches!(self.attributes, PostingsTable::Mapped { .. })
    }
}

impl xqr_index::IndexedAccess for MappedIndex {
    fn element_labels(&self, name: NameId) -> &[Labeled] {
        self.elements.labels(self.data.bytes(), name)
    }

    fn attribute_labels(&self, name: NameId) -> &[Labeled] {
        self.attributes.labels(self.data.bytes(), name)
    }

    fn path_dict(&self) -> &xqr_index::PathDict {
        &self.paths
    }

    fn elements_on_paths(&self, name: NameId, keep: &[bool]) -> Vec<Labeled> {
        self.elements.on_paths(self.data.bytes(), name, keep)
    }

    fn attributes_on_paths(&self, name: NameId, keep: &[bool]) -> Vec<Labeled> {
        self.attributes.on_paths(self.data.bytes(), name, keep)
    }

    fn entry_count(&self) -> usize {
        self.entry_count
    }

    fn memory_bytes(&self) -> usize {
        // The mapped file is the footprint; heap structures (path dict,
        // directory) are negligible next to it.
        self.data.len()
    }
}

impl std::fmt::Debug for MappedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedIndex({} entries, {} paths, zero_copy={})",
            self.entry_count,
            self.paths.len(),
            self.is_zero_copy()
        )
    }
}
