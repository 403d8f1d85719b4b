//! # xqr-segment — durable, checksummed document segments
//!
//! The persistence layer: one document (tree + structural index + path
//! dictionary) packed into a single relocatable on-disk blob, written
//! crash-safely and read back by `mmap` with zero-copy views over the
//! inverted lists.
//!
//! ## Guarantees
//!
//! * **Integrity**: every byte of a segment file is covered by at least
//!   one CRC32 (per-section CRCs + whole-body CRC + footer CRC + magic
//!   framing). Flipping any single byte makes [`Segment::open`] /
//!   [`Segment::from_bytes`] fail with the coded, non-retryable
//!   `XQRL0006 CorruptSegment` error — never a wrong answer, never a
//!   panic.
//! * **Crash safety**: [`write_segment_file`] writes to a temp file,
//!   fsyncs, renames atomically and fsyncs the directory; the
//!   [`manifest::Manifest`] is append-only with per-record CRCs and
//!   generation numbers, and replay stops at the first torn record. A
//!   crash at any point leaves the catalog in a state where every
//!   document is either fully readable or cleanly absent.
//! * **Cold start**: loading a segment re-assembles the struct-of-arrays
//!   [`xqr_store::Document`] and serves the inverted lists directly from
//!   the mapped file (`MappedIndex` implements
//!   [`xqr_index::IndexedAccess`]), skipping XML parsing and index
//!   construction entirely.
//!
//! Failpoint sites (see `xqr-faults`): `segment.write`, `segment.fsync`,
//! `segment.rename`, `manifest.append`, `segment.mmap`,
//! `segment.verify`.

mod blob;
mod crc;
mod layout;
mod manifest;
mod mmap;
mod read;
mod write;

pub use crc::crc32;
pub use manifest::{clean_orphans, Manifest, ManifestRecord};
pub use read::Segment;
pub use write::{segment_bytes, write_segment_file};
