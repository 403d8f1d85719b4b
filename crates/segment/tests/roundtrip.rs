//! Segment write→read roundtrips: the loaded document and index must be
//! observationally identical to the originals, the encoding must be
//! deterministic and pool-independent, and the real file path (tmp →
//! fsync → rename → read) must agree with the in-memory path.

use std::sync::Arc;
use xqr_index::{DocIndex, PathStep};
use xqr_joins::EdgeKind;
use xqr_segment::{crc32, segment_bytes, write_segment_file, Segment};
use xqr_store::Document;
use xqr_tokenstream::TokenStream;
use xqr_xdm::{ErrorCode, NameId, NamePool, QName};

const SAMPLE: &str = concat!(
    r#"<lib xmlns:l="urn:lib" note="n1"><!--header--><?gen v=1?>"#,
    r#"<l:book year="1967" l:tag="t"><title>The politics &amp; experience</title>"#,
    r#"<author>R.D. Laing</author></l:book>"#,
    r#"<book year="2004"><title>XML Query Processing</title><ref note="x"/></book>"#,
    r#"<empty/></lib>"#
);

fn build(xml: &str, uri: Option<&str>) -> (Arc<Document>, DocIndex, Arc<NamePool>) {
    let names = Arc::new(NamePool::new());
    let doc = Document::parse_with_uri(xml, names.clone(), uri).unwrap();
    let index = DocIndex::build(&doc).unwrap();
    (doc, index, names)
}

fn assert_equivalent(
    doc: &Document,
    index: &DocIndex,
    loaded_doc: &Document,
    loaded_index: &DocIndex,
    names: &NamePool,
    loaded_names: &NamePool,
) {
    // Tree: byte-identical XML serialization.
    assert_eq!(
        doc.serialize_node(doc.root()),
        loaded_doc.serialize_node(loaded_doc.root())
    );
    assert_eq!(doc.uri, loaded_doc.uri);
    assert_eq!(doc.len(), loaded_doc.len());
    // Index: identical label lists for every name either side knows.
    assert_eq!(index.entry_count(), loaded_index.entry_count());
    for local in ["lib", "book", "title", "author", "ref", "empty", "nope"] {
        for q in [QName::local(local), QName::ns("urn:lib", local)] {
            let a = names.get(&q).map_or(&[][..], |n| index.element_labels(n));
            let b = loaded_names
                .get(&q)
                .map_or(&[][..], |n| loaded_index.element_labels(n));
            assert_eq!(a, b, "element {q}");
            let a = names.get(&q).map_or(&[][..], |n| index.attribute_labels(n));
            let b = loaded_names
                .get(&q)
                .map_or(&[][..], |n| loaded_index.attribute_labels(n));
            assert_eq!(a, b, "attribute {q}");
        }
    }
    assert_eq!(index.path_dict().len(), loaded_index.path_dict().len());
}

#[test]
fn roundtrip_preserves_document_and_index() {
    let (doc, index, names) = build(SAMPLE, Some("sample.xml"));
    let bytes = segment_bytes(&doc, &index).unwrap();
    let seg = Segment::from_bytes(bytes).unwrap();
    assert_eq!(seg.uri(), Some("sample.xml"));
    assert_eq!(seg.node_count() as usize, doc.len());

    let loaded_names = Arc::new(NamePool::new());
    let (ldoc, lindex) = seg.load(&loaded_names).unwrap();
    assert_equivalent(&doc, &index, &ldoc, &lindex, &names, &loaded_names);
}

#[test]
fn linear_patterns_agree_between_built_and_loaded_index() {
    let (_, index, names) = build(SAMPLE, None);
    let bytes = segment_bytes(&build(SAMPLE, None).0, &index).unwrap();
    let seg = Segment::from_bytes(bytes).unwrap();
    let lnames = Arc::new(NamePool::new());
    let (_, lindex) = seg.load(&lnames).unwrap();

    let step = |names: &NamePool, e, l: &str| -> PathStep { (e, names.intern_local(l)) };
    let patterns: &[Vec<(EdgeKind, &str)>] = &[
        vec![(EdgeKind::Child, "lib"), (EdgeKind::Child, "book")],
        vec![(EdgeKind::Descendant, "book"), (EdgeKind::Child, "title")],
        vec![(EdgeKind::Descendant, "title")],
        vec![(EdgeKind::Child, "book"), (EdgeKind::Child, "title")],
    ];
    for pat in patterns {
        let a: Vec<PathStep> = pat.iter().map(|&(e, l)| step(&names, e, l)).collect();
        let b: Vec<PathStep> = pat.iter().map(|&(e, l)| step(&lnames, e, l)).collect();
        let ra = index.linear_elements(&a);
        let rb = lindex.linear_elements(&b);
        assert_eq!(ra, rb, "{pat:?}");
    }
    // Attribute pattern //ref/@note.
    let ra = index.linear_attributes(
        &[(EdgeKind::Descendant, names.intern_local("ref"))],
        EdgeKind::Child,
        names.intern_local("note"),
    );
    let rb = lindex.linear_attributes(
        &[(EdgeKind::Descendant, lnames.intern_local("ref"))],
        EdgeKind::Child,
        lnames.intern_local("note"),
    );
    assert_eq!(ra, rb);
    assert_eq!(ra.len(), 1);
}

#[test]
fn encoding_is_deterministic_and_pool_independent() {
    let (doc, index, _) = build(SAMPLE, Some("u.xml"));
    let bytes = segment_bytes(&doc, &index).unwrap();
    // The on-disk bytes of format version 2 (`layout::VERSION`). A change
    // that moves this checksum changes the format: bump the version, then
    // update the pin.
    assert_eq!(
        crc32(&bytes),
        0x7eae_77b1,
        "segment format changed without a version bump"
    );
    // Same pool, rebuilt index.
    let again = segment_bytes(&doc, &DocIndex::build(&doc).unwrap()).unwrap();
    assert_eq!(bytes, again);
    // Fresh pool pre-polluted with unrelated names: live NameIds differ,
    // segment bytes must not.
    let other = Arc::new(NamePool::new());
    for i in 0..50 {
        other.intern_local(&format!("noise{i}"));
    }
    let doc2 = Document::parse_with_uri(SAMPLE, other, Some("u.xml")).unwrap();
    let index2 = DocIndex::build(&doc2).unwrap();
    assert_eq!(bytes, segment_bytes(&doc2, &index2).unwrap());
    // And a load→rewrite cycle is byte-stable too.
    let seg = Segment::from_bytes(bytes.clone()).unwrap();
    let lnames = Arc::new(NamePool::new());
    let (ldoc, _) = seg.load(&lnames).unwrap();
    let lindex = DocIndex::build(&ldoc).unwrap();
    assert_eq!(bytes, segment_bytes(&ldoc, &lindex).unwrap());
}

#[test]
fn file_roundtrip_loads_the_built_index() {
    let dir = std::env::temp_dir().join(format!("xqr-seg-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (doc, index, names) = build(SAMPLE, Some("m.xml"));
    let bytes = segment_bytes(&doc, &index).unwrap();
    write_segment_file(&dir, "seg-1.seg", &bytes).unwrap();
    assert!(!dir.join("seg-1.seg.tmp").exists());

    let seg = Segment::open(&dir.join("seg-1.seg")).unwrap();
    assert_eq!(seg.file_bytes(), bytes.len());
    let lnames = Arc::new(NamePool::new());
    let (ldoc, lindex) = seg.load(&lnames).unwrap();
    assert_equivalent(&doc, &index, &ldoc, &lindex, &names, &lnames);
    // The loaded index is the one a build produces, footprint included.
    assert_eq!(
        lindex.memory_bytes(),
        DocIndex::build(&doc).unwrap().memory_bytes()
    );
    // A referenced file that is gone is a broken catalog: quarantine.
    std::fs::remove_file(dir.join("seg-1.seg")).unwrap();
    let err = Segment::open(&dir.join("seg-1.seg")).unwrap_err();
    assert_eq!(err.code, ErrorCode::CorruptSegment);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_tiny_documents_roundtrip() {
    for xml in ["<a/>", "<a>x</a>", "<a><b/><b/><b/></a>"] {
        let (doc, index, names) = build(xml, None);
        let seg = Segment::from_bytes(segment_bytes(&doc, &index).unwrap()).unwrap();
        let lnames = Arc::new(NamePool::new());
        let (ldoc, lindex) = seg.load(&lnames).unwrap();
        assert_equivalent(&doc, &index, &ldoc, &lindex, &names, &lnames);
    }
}

#[test]
fn random_documents_roundtrip() {
    // Deterministic pseudo-random trees via the workspace generator.
    for seed in [1u64, 7, 42, 1234] {
        let names = Arc::new(NamePool::new());
        let xml = xqr_xmlgen::random_tree(&xqr_xmlgen::RandomTreeConfig {
            seed,
            nodes: 120,
            p_attribute: 0.3,
            ..Default::default()
        });
        let stream = TokenStream::from_xml(&xml, names.clone()).unwrap();
        let mut it = stream.iter();
        let doc = Document::from_tokens(&mut it, names.clone()).unwrap();
        let index = DocIndex::build(&doc).unwrap();
        let seg = Segment::from_bytes(segment_bytes(&doc, &index).unwrap()).unwrap();
        let lnames = Arc::new(NamePool::new());
        let (ldoc, lindex) = seg.load(&lnames).unwrap();
        assert_eq!(
            doc.serialize_node(doc.root()),
            ldoc.serialize_node(ldoc.root()),
            "seed {seed}"
        );
        assert_eq!(index.entry_count(), lindex.entry_count());
        // Compare every element list by resolving both pools' names.
        for n in 0..names.len() as u32 {
            let q = names.resolve(NameId(n));
            let other = lnames.get(q).map_or(&[][..], |m| lindex.element_labels(m));
            assert_eq!(index.element_labels(NameId(n)), other, "seed {seed} {q}");
        }
    }
}
