//! The append-only catalog manifest: the small source of truth that
//! says which segment file serves which document URI.
//!
//! Record grammar (one line per record, LF-terminated, ASCII):
//!
//! ```text
//! add <generation> <file> <uri-escaped> <crc32:08x>
//! del <generation> <uri-escaped> <crc32:08x>
//! ```
//!
//! The CRC covers everything before its own field. URIs are
//! percent-escaped so they survive spaces and control bytes; segment
//! file names are restricted to `[A-Za-z0-9._-]`. Generations are
//! monotonically increasing per manifest; a record appended twice
//! (crash between segment rename and manifest fsync, then retried) is
//! idempotent under replay.
//!
//! **Replay** parses records in order and stops at the first torn or
//! corrupt line — everything before the tear is trusted (each record has
//! its own CRC), everything after is ignored, matching the append-then-
//! fsync write discipline: a crash can only tear the *tail*.

use crate::crc::crc32;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use xqr_xdm::{Error, Result};

/// One manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestRecord {
    /// Document `uri` is served by segment `file` as of `generation`.
    Add {
        generation: u64,
        file: String,
        uri: String,
    },
    /// Document `uri` was removed as of `generation`.
    Del { generation: u64, uri: String },
}

impl ManifestRecord {
    pub(crate) fn generation(&self) -> u64 {
        match self {
            ManifestRecord::Add { generation, .. } | ManifestRecord::Del { generation, .. } => {
                *generation
            }
        }
    }

    /// The LF-terminated wire line, CRC included.
    pub(crate) fn encode(&self) -> String {
        let payload = match self {
            ManifestRecord::Add {
                generation,
                file,
                uri,
            } => format!("add {generation} {file} {}", escape(uri)),
            ManifestRecord::Del { generation, uri } => {
                format!("del {generation} {}", escape(uri))
            }
        };
        format!("{payload} {:08x}\n", crc32(payload.as_bytes()))
    }

    /// Parse one line (no trailing newline). `None` = corrupt/torn.
    pub(crate) fn parse(line: &str) -> Option<ManifestRecord> {
        let (payload, crc_hex) = line.rsplit_once(' ')?;
        if crc_hex.len() != 8 || u32::from_str_radix(crc_hex, 16).ok()? != crc32(payload.as_bytes())
        {
            return None;
        }
        let mut it = payload.split(' ');
        let rec = match it.next()? {
            "add" => {
                let generation = it.next()?.parse().ok()?;
                let file = it.next()?.to_string();
                if !valid_file_name(&file) {
                    return None;
                }
                let uri = unescape(it.next()?)?;
                ManifestRecord::Add {
                    generation,
                    file,
                    uri,
                }
            }
            "del" => {
                let generation = it.next()?.parse().ok()?;
                let uri = unescape(it.next()?)?;
                ManifestRecord::Del { generation, uri }
            }
            _ => return None,
        };
        it.next().is_none().then_some(rec)
    }
}

/// A live catalog entry after replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveSegment {
    pub generation: u64,
    pub file: String,
}

/// The result of replaying a manifest.
#[derive(Debug, Default)]
pub struct Replay {
    /// The valid record prefix, in append order.
    pub records: Vec<ManifestRecord>,
    /// Did replay stop at a torn/corrupt tail?
    pub torn: bool,
}

impl Replay {
    /// Apply the records in order: the surviving uri → segment mapping.
    pub fn live(&self) -> BTreeMap<String, LiveSegment> {
        let mut live = BTreeMap::new();
        for rec in &self.records {
            match rec {
                ManifestRecord::Add {
                    generation,
                    file,
                    uri,
                } => {
                    live.insert(
                        uri.clone(),
                        LiveSegment {
                            generation: *generation,
                            file: file.clone(),
                        },
                    );
                }
                ManifestRecord::Del { uri, .. } => {
                    live.remove(uri);
                }
            }
        }
        live
    }

    /// The next generation number to mint (max over *all* records + 1,
    /// deletes included, so generations never regress after recovery).
    pub fn next_generation(&self) -> u64 {
        self.records
            .iter()
            .map(ManifestRecord::generation)
            .max()
            .map_or(1, |g| g + 1)
    }
}

/// Handle to the on-disk manifest file (`MANIFEST` inside the catalog
/// directory).
#[derive(Debug)]
pub struct Manifest {
    path: PathBuf,
}

impl Manifest {
    pub const FILE_NAME: &'static str = "MANIFEST";

    /// Open (creating if absent) the manifest in `dir`.
    pub fn open(dir: &Path) -> Result<Manifest> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("manifest dir create", e))?;
        let path = dir.join(Self::FILE_NAME);
        if !path.exists() {
            let f = File::create(&path).map_err(|e| io_err("manifest create", e))?;
            f.sync_all().map_err(|e| io_err("manifest fsync", e))?;
            sync_dir(dir)?;
        }
        Ok(Manifest { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record and fsync. Failpoint site `manifest.append`.
    pub fn append(&self, rec: &ManifestRecord) -> Result<()> {
        xqr_faults::faultpoint!("manifest.append");
        let mut f = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.path)
            .map_err(|e| io_err("manifest open", e))?;
        f.write_all(rec.encode().as_bytes())
            .map_err(|e| io_err("manifest append", e))?;
        f.sync_all().map_err(|e| io_err("manifest fsync", e))?;
        Ok(())
    }

    /// Replay the manifest: the valid record prefix plus a torn flag.
    pub fn replay(&self) -> Result<Replay> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(io_err("manifest read", e)),
        };
        let mut replay = Replay::default();
        let mut rest = &bytes[..];
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let parsed = std::str::from_utf8(&rest[..nl])
                .ok()
                .and_then(ManifestRecord::parse);
            match parsed {
                Some(rec) => replay.records.push(rec),
                None => {
                    // Corrupt line: trust nothing at or after it.
                    replay.torn = true;
                    return Ok(replay);
                }
            }
            rest = &rest[nl + 1..];
        }
        if !rest.is_empty() {
            // Unterminated tail: a write died mid-record.
            replay.torn = true;
        }
        Ok(replay)
    }
}

/// Delete segment/temp files in `dir` that the live set does not
/// reference: leftovers of writes that crashed before their manifest
/// record landed. Returns the removed file names (best effort — a file
/// that cannot be removed is skipped, not fatal).
pub fn clean_orphans<F: Fn(&str) -> bool>(dir: &Path, keep: F) -> Result<Vec<String>> {
    let mut removed = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("catalog dir read", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("catalog dir read", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let orphan = name.ends_with(".tmp") || (name.ends_with(".seg") && !keep(name));
        if orphan && std::fs::remove_file(entry.path()).is_ok() {
            removed.push(name.to_string());
        }
    }
    removed.sort();
    Ok(removed)
}

fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("dir fsync", e))
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::unavailable(format!("{what}: {e}"))
}

fn valid_file_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Percent-escape everything outside printable ASCII (and `%` itself) so
/// a URI is always one space-free token on the manifest line.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if (0x21..=0x7E).contains(&b) && b != b'%' {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    if out.is_empty() {
        // An empty URI still needs a token on the line.
        out.push_str("%00");
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    if out == b"\0" {
        return Some(String::new());
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lines_roundtrip() {
        let recs = [
            ManifestRecord::Add {
                generation: 7,
                file: "seg-7.seg".into(),
                uri: "docs/a b%.xml".into(),
            },
            ManifestRecord::Del {
                generation: 9,
                uri: "ünïcode.xml".into(),
            },
            ManifestRecord::Add {
                generation: 10,
                file: "seg-10.seg".into(),
                uri: String::new(),
            },
        ];
        for rec in recs {
            let line = rec.encode();
            let parsed = ManifestRecord::parse(line.trim_end()).unwrap();
            assert_eq!(parsed, rec);
        }
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        let line = ManifestRecord::Add {
            generation: 1,
            file: "seg-1.seg".into(),
            uri: "u".into(),
        }
        .encode();
        let line = line.trim_end();
        assert!(ManifestRecord::parse(line).is_some());
        for i in 0..line.len() {
            let mut chars: Vec<u8> = line.as_bytes().to_vec();
            chars[i] ^= 0x01;
            if let Ok(s) = std::str::from_utf8(&chars) {
                assert!(ManifestRecord::parse(s).is_none(), "flip at {i} accepted");
            }
        }
        assert!(ManifestRecord::parse("add 1 seg-1.seg u deadbeef").is_none());
        assert!(ManifestRecord::parse("").is_none());
        assert!(ManifestRecord::parse("frob 1 x 00000000").is_none());
    }

    #[test]
    fn live_set_applies_adds_and_dels_in_order() {
        let replay = Replay {
            records: vec![
                ManifestRecord::Add {
                    generation: 1,
                    file: "seg-1.seg".into(),
                    uri: "a".into(),
                },
                ManifestRecord::Add {
                    generation: 2,
                    file: "seg-2.seg".into(),
                    uri: "a".into(),
                },
                ManifestRecord::Add {
                    generation: 3,
                    file: "seg-3.seg".into(),
                    uri: "b".into(),
                },
                ManifestRecord::Del {
                    generation: 4,
                    uri: "b".into(),
                },
            ],
            torn: false,
        };
        let live = replay.live();
        assert_eq!(live.len(), 1);
        assert_eq!(live["a"].file, "seg-2.seg");
        assert_eq!(live["a"].generation, 2);
        assert_eq!(replay.next_generation(), 5);
    }

    #[test]
    fn duplicate_generation_replay_is_idempotent() {
        let rec = ManifestRecord::Add {
            generation: 5,
            file: "seg-5.seg".into(),
            uri: "a".into(),
        };
        let replay = Replay {
            records: vec![rec.clone(), rec],
            torn: false,
        };
        let live = replay.live();
        assert_eq!(live.len(), 1);
        assert_eq!(live["a"].generation, 5);
        assert_eq!(replay.next_generation(), 6);
    }
}
