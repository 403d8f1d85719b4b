//! Segment serialization and the crash-safe file write protocol.
//!
//! [`segment_bytes`] packs one document — tree arrays, inverted lists,
//! path dictionary — into the layout described in `layout.rs`. The
//! encoding is *relocatable*: all name references are segment-local
//! dense ids (0 = the absent name) defined in the NAMES section, so a
//! segment can be loaded into any `NamePool`. It is also
//! *deterministic*: the same document and index always serialize to the
//! same bytes, regardless of pool id assignment or hash-map iteration
//! order (inverted-list directories are sorted by segment-local name id,
//! which is derived from document order).
//!
//! [`write_segment_file`] is the durability half: write to `<name>.tmp`,
//! fsync, atomically rename to `<name>`, fsync the directory. A crash at
//! any step leaves either no file or a fully valid file — never a
//! partially visible one. Failpoints `segment.write`, `segment.fsync`
//! and `segment.rename` bracket each step for the chaos harness.

use crate::blob::ByteWriter;
use crate::layout::{kind_to_u8, section, write_footer, MAGIC, VERSION};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use xqr_index::{DocIndex, Postings};
use xqr_store::{Document, NO_NODE};
use xqr_xdm::{Error, NameId, Result};

/// Segment-local name table: dense ids in first-occurrence document
/// order, with id 0 pinned to the absent name. Pool-independent, hence
/// the determinism guarantee above.
struct SegNames {
    live_to_seg: HashMap<u32, u32>,
    seg_to_live: Vec<NameId>,
}

impl SegNames {
    fn build(node_names: &[NameId]) -> SegNames {
        let mut names = SegNames {
            live_to_seg: HashMap::from([(NameId::NONE.0, 0)]),
            seg_to_live: vec![NameId::NONE],
        };
        for &n in node_names {
            if !names.live_to_seg.contains_key(&n.0) {
                names
                    .live_to_seg
                    .insert(n.0, names.seg_to_live.len() as u32);
                names.seg_to_live.push(n);
            }
        }
        names
    }

    fn seg(&self, live: NameId) -> u32 {
        // Every name the index references belongs to some document node,
        // so it was collected in build().
        *self
            .live_to_seg
            .get(&live.0)
            .expect("index name not present in document")
    }
}

/// Serialize a document and its structural index into a complete,
/// checksummed segment blob.
pub fn segment_bytes(doc: &Document, index: &DocIndex) -> Result<Vec<u8>> {
    let parts = doc.raw_parts();
    let names = SegNames::build(parts.node_names);
    let mut w = ByteWriter::new();
    w.bytes(&MAGIC);
    let mut table: Vec<(u32, usize, usize)> = Vec::new();
    let begin = |w: &mut ByteWriter| {
        w.align16();
        w.offset()
    };

    // META
    let off = begin(&mut w);
    w.u32(VERSION);
    w.opt_str(parts.uri);
    w.u64(parts.kinds.len() as u64);
    w.u64(index.entry_count() as u64);
    table.push((section::META, off, w.offset() - off));

    // NAMES
    let off = begin(&mut w);
    w.u32(names.seg_to_live.len() as u32);
    for &live in &names.seg_to_live {
        let q = doc.names.resolve(live);
        let flags = u8::from(q.namespace().is_some()) | (u8::from(q.prefix().is_some()) << 1);
        w.u8(flags);
        if let Some(ns) = q.namespace() {
            w.str(ns);
        }
        if let Some(p) = q.prefix() {
            w.str(p);
        }
        w.str(q.local_name());
    }
    table.push((section::NAMES, off, w.offset() - off));

    // TREE: the struct-of-arrays document, name ids remapped seg-local.
    let off = begin(&mut w);
    w.u64(parts.kinds.len() as u64);
    for &k in parts.kinds {
        w.u8(kind_to_u8(k));
    }
    for &n in parts.node_names {
        w.u32(names.seg(n));
    }
    for arr in [
        parts.parents,
        parts.next_siblings,
        parts.first_children,
        parts.subtree_ends,
    ] {
        for &v in arr {
            w.u32(v);
        }
    }
    for &l in parts.levels {
        w.u16(l);
    }
    for &v in parts.values {
        w.u32(v);
    }
    w.u32(parts.strings.len() as u32);
    for (_, s) in parts.strings.iter() {
        w.str(s);
    }
    table.push((section::TREE, off, w.offset() - off));

    // PATHS: the dictionary rows in id order (parents precede children),
    // so re-interning on load reproduces identical PathIds.
    let dict = index.path_dict();
    let off = begin(&mut w);
    w.u32(dict.len() as u32);
    for i in 0..dict.len() as u32 {
        let p = xqr_index::PathId(i);
        w.u32(dict.parent(p).map_or(u32::MAX, |pp| pp.0));
        w.u32(names.seg(dict.name(p)));
    }
    table.push((section::PATHS, off, w.offset() - off));

    // ELEMS / ATTRS inverted lists.
    let postings_section = |w: &mut ByteWriter,
                            table: &mut Vec<(u32, usize, usize)>,
                            id: u32,
                            lists: Vec<(u32, &Postings)>| {
        let off = begin(w);
        w.u32(lists.len() as u32);
        for &(seg, p) in &lists {
            w.u32(seg);
            w.u32(p.len() as u32);
        }
        // Labels start on the next 16-byte file boundary: format v2 has
        // this padding, so it is kept until the next format version.
        w.align16();
        for &(_, p) in &lists {
            for l in p.labels() {
                w.u32(l.node.0);
                w.u32(l.start);
                w.u32(l.end);
                w.u16(l.level);
                w.u16(0); // explicit struct padding, kept zero on disk
            }
        }
        for &(_, p) in &lists {
            for path in p.paths() {
                w.u32(path.0);
            }
        }
        table.push((id, off, w.offset() - off));
    };
    fn sorted<'a>(
        it: impl Iterator<Item = (NameId, &'a Postings)>,
        names: &SegNames,
    ) -> Vec<(u32, &'a Postings)> {
        let mut v: Vec<(u32, &'a Postings)> = it.map(|(n, p)| (names.seg(n), p)).collect();
        v.sort_by_key(|&(seg, _)| seg);
        v
    }
    postings_section(
        &mut w,
        &mut table,
        section::ELEMS,
        sorted(index.element_postings(), &names),
    );
    postings_section(
        &mut w,
        &mut table,
        section::ATTRS,
        sorted(index.attribute_postings(), &names),
    );

    w.align16();
    let mut buf = w.buf;
    write_footer(&mut buf, &table);
    Ok(buf)
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::unavailable(format!("segment {what}: {e}"))
}

/// Crash-safe persist: temp file → fsync → atomic rename → directory
/// fsync. After this returns, the segment is durable; if it errors (or
/// the process dies) at any step, the final path is untouched and at
/// worst a `.tmp` orphan remains for recovery to sweep.
pub fn write_segment_file(dir: &Path, file_name: &str, bytes: &[u8]) -> Result<()> {
    xqr_faults::faultpoint!("segment.write");
    let tmp = dir.join(format!("{file_name}.tmp"));
    let mut f = File::create(&tmp).map_err(|e| io_err("create", e))?;
    f.write_all(bytes).map_err(|e| io_err("write", e))?;
    xqr_faults::faultpoint!("segment.fsync");
    f.sync_all().map_err(|e| io_err("fsync", e))?;
    drop(f);
    xqr_faults::faultpoint!("segment.rename");
    std::fs::rename(&tmp, dir.join(file_name)).map_err(|e| io_err("rename", e))?;
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("dir fsync", e))?;
    Ok(())
}

// NO_NODE is serialized raw; keep the sentinel assumption explicit.
const _: () = assert!(NO_NODE == u32::MAX);
