//! Document catalog: named documents under a total-bytes budget, with
//! optional durable persistence.
//!
//! A long-lived service cannot let its document store grow without
//! bound. The catalog is the service engine's [`DocumentMap`]: the one
//! place a document has a name, so `fn:doc("name")` resolves here and
//! refreshes the document's LRU position. Each entry holds its
//! document's lease and in-memory size
//! ([`xqr_store::Document::memory_bytes`]). When the sum exceeds the
//! configured budget, least-recently-used entries are evicted: the entry
//! drops its lease, and the store keeps only a slot.
//!
//! Eviction and replacement are safe with respect to running queries: a
//! query that has already resolved the document leases it
//! ([`xqr_store::Lease`]) and reads that version to the end; a query
//! that resolves *after* eviction gets a clean `err:FODC0002` (document
//! not found) — or, under persistence, a transparent reload from the
//! document's segment.
//!
//! # Persistence
//!
//! [`DocumentCatalog::open`] with a directory puts an `xqr-segment` store
//! behind the catalog. Every `put` additionally serializes the document
//! (tree + structural index) into a checksummed segment file,
//! written crash-safely (temp file → fsync → atomic rename → directory
//! fsync) and recorded in an append-only manifest with a generation
//! number. On reopen the manifest is replayed, orphan files are swept,
//! and every recorded document comes back as a lazily-loaded entry:
//! the first access reads the segment, verifies its checksums, and
//! re-registers the document with the index it stored — no XML
//! parsing, no index build. A reloaded document is charged exactly
//! what its `put` charged.
//!
//! A segment that fails verification is **quarantined**: it is never
//! served (every access yields the non-retryable `err:XQRL0006
//! CorruptSegment`). Quarantined bytes are *not* charged against the
//! byte budget — the budget bounds memory the catalog actually holds,
//! and a quarantined entry holds none — so a poisoned segment can never
//! permanently shrink the capacity operators sized for live data. The
//! quarantined disk footprint is tracked in its own gauge
//! ([`CatalogStats::quarantined_bytes`]) for observability, and is
//! released when the entry is removed or replaced.
//!
//! Under persistence, LRU eviction demotes a document to its segment
//! instead of dropping it: the tree leaves memory, the entry stays, and
//! the next `fn:doc` call reloads it.
//!
//! # Memory ledger
//!
//! The catalog is born with the service's [`MemoryLedger`]: every byte
//! that enters or leaves `total_bytes` is charged to or released from
//! [`Category::CatalogResident`] in the same step, under the catalog
//! lock, so the two never disagree. The ledger's pressure state gates
//! index builds (the Yellow brownout rung of the ladder in
//! [`crate::resilience`]).

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xqr_core::DocumentMap;
use xqr_index::DocIndex;
use xqr_parallel::lock_recover;
use xqr_pressure::{Category, MemoryLedger, PressureState};
use xqr_segment::{
    clean_orphans, segment_bytes, write_segment_file, Manifest, ManifestRecord, Segment,
};
use xqr_store::{DocId, Document, Lease, Store};
use xqr_xdm::{Error, ErrorCode, Limits, QueryGuard, Result};

/// Catalog counters, snapshotted via [`DocumentCatalog::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Catalog entries: in-memory documents plus (under persistence)
    /// on-disk and quarantined ones.
    pub docs: u64,
    /// Bytes charged against the budget: live documents' in-memory sizes
    /// (tree + structural index) plus quarantined segments' disk sizes.
    pub bytes: u64,
    /// The structural-index share of `bytes`.
    pub index_bytes: u64,
    /// Documents evicted to stay under the byte budget (replacements and
    /// explicit removals are not counted). Under persistence an eviction
    /// demotes the document to its segment instead of dropping it.
    pub evictions: u64,
    /// Structural indexes built (a budget-tripped build is not counted;
    /// its document stays live, unindexed).
    pub index_builds: u64,
    /// Total wall-clock nanoseconds spent building structural indexes.
    pub index_build_nanos: u64,
    /// Index builds that failed (budget trip, injected fault or panic);
    /// their documents stay live, unindexed.
    pub index_build_failures: u64,
    /// Segments written durably by `put`.
    pub segments_written: u64,
    /// Segments loaded back from disk (read, verified, re-registered).
    pub segments_recovered: u64,
    /// Segments that failed verification and were quarantined.
    pub segments_quarantined: u64,
    /// Wall-clock nanoseconds the persistent open spent replaying the
    /// manifest, sweeping orphans, and adopting entries (0 when the
    /// catalog is memory-only).
    pub cold_start_nanos: u64,
    /// Disk bytes held by quarantined segments. Observability only —
    /// quarantined entries hold no memory, so this never counts against
    /// the byte budget.
    pub quarantined_bytes: u64,
    /// Loads that skipped the index build because the memory ledger was
    /// at Yellow or worse; their documents stay live, unindexed.
    pub pressure_no_index: u64,
}

/// Where a catalog entry's document currently lives.
enum Residency {
    /// In memory (and, under persistence, also on disk): the entry's
    /// lease keeps the document alive.
    Loaded {
        lease: Lease,
        bytes: u64,
        index_bytes: u64,
    },
    /// Durable on disk only; reloaded lazily on the next access.
    OnDisk,
    /// The segment failed verification. Never served; holds no memory,
    /// so it charges nothing against the budget (its disk footprint is
    /// tracked in the `quarantined_bytes` gauge instead).
    Quarantined,
}

/// The durable half of an entry: which segment file holds it.
#[derive(Clone)]
struct Durable {
    generation: u64,
    file: String,
    disk_bytes: u64,
}

struct CatEntry {
    residency: Residency,
    durable: Option<Durable>,
    last_used: u64,
}

impl CatEntry {
    /// What this entry charges against the budget:
    /// `(total bytes, index share)`.
    fn charge(&self) -> (u64, u64) {
        match &self.residency {
            Residency::Loaded {
                bytes, index_bytes, ..
            } => (*bytes, *index_bytes),
            Residency::OnDisk => (0, 0),
            // A quarantined segment holds no memory: charging its disk
            // bytes would let corruption permanently shrink effective
            // capacity (the old behavior, fixed in the overload PR).
            Residency::Quarantined => (0, 0),
        }
    }

    fn quarantined_disk_bytes(&self) -> u64 {
        match self.residency {
            Residency::Quarantined => self.durable.as_ref().map_or(0, |d| d.disk_bytes),
            _ => 0,
        }
    }
}

struct CatalogInner {
    entries: HashMap<String, CatEntry>,
    total_bytes: u64,
    total_index_bytes: u64,
    /// `total_bytes` is charged here as [`Category::CatalogResident`].
    ledger: Arc<MemoryLedger>,
}

impl CatalogInner {
    fn charge(&mut self, bytes: u64, index_bytes: u64) {
        self.total_bytes += bytes;
        self.total_index_bytes += index_bytes;
        self.ledger.charge(Category::CatalogResident, bytes);
    }

    fn uncharge_entry(&mut self, e: &CatEntry) {
        let (b, ib) = e.charge();
        self.total_bytes = self.total_bytes.saturating_sub(b);
        self.total_index_bytes = self.total_index_bytes.saturating_sub(ib);
        self.ledger.release(Category::CatalogResident, b);
    }
}

/// The ledger outlives the catalog (the service hands clones out), so a
/// dropped catalog gives its resident bytes back.
impl Drop for CatalogInner {
    fn drop(&mut self) {
        self.ledger
            .release(Category::CatalogResident, self.total_bytes);
    }
}

/// The segment store behind a persistent catalog.
struct Persistence {
    dir: PathBuf,
    manifest: Manifest,
    next_generation: AtomicU64,
}

/// Named documents with LRU eviction under a total-bytes budget, and
/// optional segment-backed persistence (see the module docs).
pub struct DocumentCatalog {
    store: Arc<Store>,
    /// Total in-memory byte budget; `None` means unbounded.
    max_bytes: Option<u64>,
    /// `Some(limits)` = build a structural index for every loaded
    /// document, with the build guarded by `limits`.
    index_limits: Option<Limits>,
    persist: Option<Persistence>,
    inner: Mutex<CatalogInner>,
    tick: AtomicU64,
    evictions: AtomicU64,
    index_builds: AtomicU64,
    index_build_nanos: AtomicU64,
    index_build_failures: AtomicU64,
    segments_written: AtomicU64,
    segments_recovered: AtomicU64,
    segments_quarantined: AtomicU64,
    /// Set once by the persistent open; 0 for memory-only catalogs.
    cold_start_nanos: u64,
    /// Disk bytes held by quarantined segments (gauge; never budgeted).
    quarantined_bytes: AtomicU64,
    /// Index builds skipped because the memory ledger said Yellow+.
    pressure_no_index: AtomicU64,
    /// The service-wide ledger (the one `inner` charges), read here for
    /// its pressure state: Yellow or worse skips index builds.
    ledger: Arc<MemoryLedger>,
}

impl DocumentCatalog {
    /// Open a catalog over `store`, charging resident bytes to `ledger`.
    ///
    /// `index_limits: Some(limits)` builds a structural index for every
    /// document loaded, the build guarded by `limits`. Index bytes count
    /// against the byte budget and are freed with the document on
    /// eviction, replacement, and removal.
    ///
    /// `persist_dir: Some(dir)` opens (or creates) the durable segment
    /// store there: the manifest is replayed, orphan files (`*.tmp` and
    /// segments no live record references) are swept, and every recorded
    /// document is adopted as a lazily-loaded entry — O(manifest) work,
    /// no segment is read yet. Checksums are verified on first touch; a
    /// failing segment is quarantined, never served. Without a
    /// directory the catalog is memory-only and opening it cannot fail.
    ///
    /// An engine over the catalog ([`xqr_core::Engine::with_documents`])
    /// resolves every `fn:doc("name")` here: that is what transparently
    /// reloads evicted or not-yet-touched documents, and what makes a
    /// reader that resolves while [`put`] swaps a name's versions wait
    /// for the new one on the catalog lock.
    ///
    /// [`put`]: DocumentCatalog::put
    pub fn open(
        store: Arc<Store>,
        max_bytes: Option<u64>,
        index_limits: Option<Limits>,
        persist_dir: Option<PathBuf>,
        ledger: Arc<MemoryLedger>,
    ) -> Result<Arc<Self>> {
        let started = Instant::now();
        let mut entries = HashMap::new();
        let mut quarantined = 0u64;
        let persist = match persist_dir {
            None => None,
            Some(dir) => {
                let manifest = Manifest::open(&dir)?;
                let replay = manifest.replay()?;
                let live = replay.live();
                clean_orphans(&dir, |f| live.values().any(|l| l.file == f))?;
                for (uri, l) in &live {
                    // Adoption only needs the file's existence and size;
                    // content verification is deferred to first touch. A
                    // manifest record whose file is missing (externally
                    // deleted) is quarantined up front — it can never be
                    // served. Neither residency holds memory, so nothing
                    // is charged yet.
                    let (residency, disk_bytes) = match fs::metadata(dir.join(&l.file)) {
                        Ok(m) => (Residency::OnDisk, m.len()),
                        Err(_) => {
                            quarantined += 1;
                            (Residency::Quarantined, 0)
                        }
                    };
                    entries.insert(
                        uri.clone(),
                        CatEntry {
                            residency,
                            durable: Some(Durable {
                                generation: l.generation,
                                file: l.file.clone(),
                                disk_bytes,
                            }),
                            last_used: 0,
                        },
                    );
                }
                Some(Persistence {
                    dir,
                    manifest,
                    next_generation: AtomicU64::new(replay.next_generation()),
                })
            }
        };
        let cold_start_nanos = persist
            .as_ref()
            .map_or(0, |_| started.elapsed().as_nanos() as u64);
        Ok(Arc::new(DocumentCatalog {
            store,
            max_bytes,
            index_limits,
            persist,
            inner: Mutex::new(CatalogInner {
                entries,
                total_bytes: 0,
                total_index_bytes: 0,
                ledger: Arc::clone(&ledger),
            }),
            tick: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            index_builds: AtomicU64::new(0),
            index_build_nanos: AtomicU64::new(0),
            index_build_failures: AtomicU64::new(0),
            segments_written: AtomicU64::new(0),
            segments_recovered: AtomicU64::new(0),
            segments_quarantined: AtomicU64::new(quarantined),
            cold_start_nanos,
            quarantined_bytes: AtomicU64::new(0),
            pressure_no_index: AtomicU64::new(0),
            ledger,
        }))
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Build `doc`'s structural index under the catalog's limits. `None`
    /// means the document stays unindexed and queries navigate: indexing
    /// is off, the ledger is at Yellow or worse (an index build is pure
    /// memory amplification right when memory is the problem), or the
    /// build failed — a budget trip, an injected fault, or a panic,
    /// which is contained here so the caller keeps its lease.
    fn build_index(&self, doc: &Document) -> Option<Arc<DocIndex>> {
        let limits = self.index_limits?;
        if self.ledger.state() >= PressureState::Yellow {
            self.pressure_no_index.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let started = Instant::now();
        let guard = QueryGuard::new(limits);
        match xqr_core::contain_panic(|| xqr_index::ensure_indexed(doc, &guard)) {
            Ok(index) => {
                self.index_builds.fetch_add(1, Ordering::Relaxed);
                self.index_build_nanos
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Some(index)
            }
            Err(_) => {
                self.index_build_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Lease (and index, as [`put`] would) a document the caller built,
    /// WITHOUT creating a catalog entry: the document lives as long as
    /// the returned lease. The publish path uses this for the shared
    /// fallback document of one publish, built from the shared pass's
    /// tokens — index accounting and the unindexed fallbacks apply
    /// exactly as for [`put`], but the document never competes for the
    /// catalog byte budget, is never persisted, and is invisible to
    /// `doc()` resolution.
    ///
    /// [`put`]: DocumentCatalog::put
    pub(crate) fn lease_transient(&self, doc: Arc<Document>) -> Result<Lease> {
        xqr_faults::faultpoint!("catalog.load");
        let doc = self.store.lease_built(doc)?;
        self.build_index(&doc.doc);
        Ok(doc)
    }

    /// Parse `xml` and register it under `name` (reachable from queries
    /// as `doc("name")`). Replaces any previous document of the same
    /// name, after evicting least-recently-used documents until the new
    /// one fits the byte budget. The incoming document is never its own
    /// eviction victim — a single document larger than the whole budget
    /// is admitted alone (and will be evicted by the next load).
    ///
    /// Under persistence the document is also serialized into a new
    /// segment file and recorded in the manifest before the entry
    /// becomes visible; a persist failure fails the whole `put`, so a
    /// successful return means the document is durable. Exception: a
    /// document whose *guarded index build* failed or was skipped under
    /// memory pressure stays memory-only (serializing it would require
    /// an unguarded build, circumventing the very limits that tripped).
    pub fn put(&self, name: &str, xml: &str) -> Result<DocId> {
        xqr_faults::faultpoint!("catalog.load");
        // Parse (and index) outside the catalog lock: loads can be large.
        let doc = self.store.lease_xml(xml, Some(name))?;
        self.commit(name, doc).map(|doc| doc.id)
    }

    /// [`DocumentCatalog::put`] of a document the caller built with
    /// `name` as its URI — a retained publish's, built from the shared
    /// pass's tokens. Returns the entry's lease.
    pub(crate) fn put_built(&self, name: &str, doc: Arc<Document>) -> Result<Lease> {
        xqr_faults::faultpoint!("catalog.load");
        debug_assert_eq!(doc.uri.as_deref(), Some(name));
        self.commit(name, self.store.lease_built(doc)?)
    }

    /// The rest of a put: index `doc`, persist it, and make it entry
    /// `name`. Until the commit at the end only this lease holds the
    /// document, so an early return or an unwind frees it.
    fn commit(&self, name: &str, doc: Lease) -> Result<Lease> {
        let built = self.build_index(&doc.doc);
        // Wanted an index and got none: the document stays memory-only
        // (see above).
        let unindexed = self.index_limits.is_some() && built.is_none();
        let index_bytes = built.as_ref().map_or(0, |i| i.memory_bytes() as u64);
        let bytes = doc.doc.memory_bytes() as u64 + index_bytes;
        // Serialize and write the segment file outside the lock; the
        // manifest append happens under it, so record order and entry
        // order can't disagree between racing puts of the same name.
        let durable = match (&self.persist, unindexed) {
            (Some(p), false) => Some(self.write_segment(p, &doc.doc, built.as_deref())?),
            _ => None,
        };
        let mut inner = lock_recover(&self.inner);
        if let Some(p) = &self.persist {
            match &durable {
                Some(d) => {
                    if let Err(e) = p.manifest.append(&ManifestRecord::Add {
                        generation: d.generation,
                        file: d.file.clone(),
                        uri: name.to_string(),
                    }) {
                        // The written file is an unreferenced orphan now;
                        // sweep it eagerly (reopen would sweep it anyway).
                        let _ = fs::remove_file(p.dir.join(&d.file));
                        return Err(e);
                    }
                    self.segments_written.fetch_add(1, Ordering::Relaxed);
                }
                // Unindexed memory-only replace: retire any stale durable
                // copy, or a restart would serve the *old* version of
                // this name — a wrong answer, not just a missing one.
                None => {
                    if inner.entries.get(name).is_some_and(|e| e.durable.is_some()) {
                        let generation = p.next_generation.fetch_add(1, Ordering::Relaxed);
                        p.manifest.append(&ManifestRecord::Del {
                            generation,
                            uri: name.to_string(),
                        })?;
                    }
                }
            }
        }
        if let Some(old) = inner.entries.remove(name) {
            // Un-name the old version; a query still reading it keeps it
            // alive until that query ends.
            inner.uncharge_entry(&old);
            // Replacing a quarantined entry releases its gauge bytes.
            self.quarantined_bytes
                .fetch_sub(old.quarantined_disk_bytes(), Ordering::Relaxed);
            // The new Add record supersedes the old one for this URI, so
            // the old segment file is dead weight; best-effort delete
            // (reopen sweeps it as an orphan regardless).
            if let (Some(p), Some(d)) = (&self.persist, &old.durable) {
                let _ = fs::remove_file(p.dir.join(&d.file));
            }
        }
        self.make_room(&mut inner, bytes);
        // Commit: the entry names the document, holds it and accounts
        // for it.
        let entry = CatEntry {
            residency: Residency::Loaded {
                lease: doc.clone(),
                bytes,
                index_bytes,
            },
            durable,
            last_used: self.next_tick(),
        };
        inner.charge(bytes, index_bytes);
        inner.entries.insert(name.to_string(), entry);
        Ok(doc)
    }

    /// Serialize `doc` and write its segment file crash-safely. The
    /// manifest is NOT appended here — that happens under the catalog
    /// lock; until then the file is an unreferenced orphan a crash
    /// would sweep.
    fn write_segment(
        &self,
        p: &Persistence,
        doc: &Document,
        index: Option<&DocIndex>,
    ) -> Result<Durable> {
        let throwaway;
        let index = match index {
            Some(index) => index,
            None => {
                // Indexing is off for this catalog; the segment format
                // still carries the inverted lists, so build them just
                // for the durable copy.
                throwaway = DocIndex::build(doc)?;
                &throwaway
            }
        };
        let blob = segment_bytes(doc, index)?;
        let generation = p.next_generation.fetch_add(1, Ordering::Relaxed);
        let file = format!("seg-{generation}.seg");
        write_segment_file(&p.dir, &file, &blob)?;
        Ok(Durable {
            generation,
            file,
            disk_bytes: blob.len() as u64,
        })
    }

    /// Evict until `incoming` more bytes fit the budget — *before* the
    /// incoming document becomes an entry, so it cannot be its own
    /// victim and neither the catalog nor the ledger ever holds budget
    /// plus one document.
    fn make_room(&self, inner: &mut CatalogInner, incoming: u64) {
        if let Some(budget) = self.max_bytes {
            self.evict_to(inner, budget.saturating_sub(incoming));
        }
    }

    /// Shed resident documents until the catalog holds at most
    /// `target_bytes` — the brownout ladder's demote/evict rung. Under
    /// persistence victims are demoted to their segments (reloadable);
    /// memory-only victims are dropped. Cheap when already under the
    /// target (one lock, no scan).
    pub(crate) fn shed_cold(&self, target_bytes: u64) {
        self.evict_to(&mut lock_recover(&self.inner), target_bytes);
    }

    /// Evict least-recently-used *loaded* entries until at most `budget`
    /// bytes are resident. Under persistence a victim is demoted to its
    /// segment (the entry stays, reloadable); memory-only victims are
    /// dropped entirely.
    fn evict_to(&self, inner: &mut CatalogInner, budget: u64) {
        while inner.total_bytes > budget {
            let Some(victim) = inner
                .entries
                .iter()
                .filter(|(_, e)| matches!(e.residency, Residency::Loaded { .. }))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                // Nothing left to evict (only on-disk entries remain).
                break;
            };
            let mut evicted = inner.entries.remove(&victim).expect("victim exists");
            inner.uncharge_entry(&evicted);
            if evicted.durable.is_some() {
                // Demote: the document lives on in its segment (which
                // holds no memory, so charges nothing) and reloads on
                // the next access.
                evicted.residency = Residency::OnDisk;
                inner.entries.insert(victim, evicted);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Load an on-disk entry back into memory: read, verify, register,
    /// and charge the document and its index as `put` did. Caller holds
    /// the inner lock and has checked the entry is `OnDisk`. Corruption
    /// quarantines the entry (charging nothing) and returns the coded
    /// error; transient faults leave it on disk, retryable.
    fn reload_locked(&self, inner: &mut CatalogInner, name: &str) -> Result<Lease> {
        let persist = self
            .persist
            .as_ref()
            .expect("on-disk entry implies persistence");
        let durable = inner
            .entries
            .get(name)
            .and_then(|e| e.durable.clone())
            .expect("on-disk entry has a segment");
        let path = persist.dir.join(&durable.file);
        let loaded = (|| {
            let seg = Segment::open(&path)?;
            if seg.uri() != Some(name) {
                return Err(Error::corrupt_segment(format!(
                    "segment {} carries uri {:?}, catalog expected {name:?}",
                    durable.file,
                    seg.uri()
                )));
            }
            seg.load(self.store.names())
        })();
        match loaded {
            Ok((doc, index)) => {
                let index_bytes = index.memory_bytes() as u64;
                let bytes = doc.memory_bytes() as u64 + index_bytes;
                xqr_index::attach_index(&doc, Arc::new(index));
                let doc = self.store.lease_document(doc);
                // Room first (the entry is still `OnDisk`, so not a
                // victim).
                self.make_room(inner, bytes);
                let entry = inner.entries.get_mut(name).expect("caller checked");
                // OnDisk charged nothing, so no uncharge needed.
                entry.residency = Residency::Loaded {
                    lease: doc.clone(),
                    bytes,
                    index_bytes,
                };
                entry.last_used = self.next_tick();
                inner.charge(bytes, index_bytes);
                self.segments_recovered.fetch_add(1, Ordering::Relaxed);
                Ok(doc)
            }
            Err(e) if e.code == ErrorCode::CorruptSegment => {
                // Quarantine holds no memory, so the budget is untouched;
                // the disk footprint goes to the observability gauge.
                let entry = inner.entries.get_mut(name).expect("caller checked");
                entry.residency = Residency::Quarantined;
                self.quarantined_bytes
                    .fetch_add(durable.disk_bytes, Ordering::Relaxed);
                self.segments_quarantined.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            // Transient (an injected read fault, say): stay OnDisk so a
            // retry can succeed.
            Err(e) => Err(e),
        }
    }

    /// Lease the document named `name`, refreshing its LRU position and
    /// reloading it from disk when necessary. `Ok(None)` means the name
    /// is genuinely absent; a quarantined entry propagates
    /// `err:XQRL0006`. This is what `fn:doc` asks.
    pub fn resolve(&self, name: &str) -> Result<Option<Lease>> {
        let mut inner = lock_recover(&self.inner);
        let tick = self.next_tick();
        match inner.entries.get_mut(name) {
            None => Ok(None),
            Some(e) => match &e.residency {
                Residency::Loaded { lease, .. } => {
                    e.last_used = tick;
                    Ok(Some(lease.clone()))
                }
                Residency::OnDisk => self.reload_locked(&mut inner, name).map(Some),
                Residency::Quarantined => Err(Error::corrupt_segment(format!(
                    "document {name:?} is quarantined: its segment failed integrity \
                     verification"
                ))),
            },
        }
    }

    /// Resolve a name, refreshing its LRU position. `None` if the name
    /// was never loaded, has been dropped, or cannot be served (a
    /// quarantined or currently-unreadable segment — use
    /// [`DocumentCatalog::resolve`] for the coded error).
    pub fn get(&self, name: &str) -> Option<DocId> {
        Some(self.resolve(name).ok()??.id)
    }

    /// True while `name` has a catalog entry (loaded, on disk, or
    /// quarantined; does not refresh LRU position).
    pub fn contains(&self, name: &str) -> bool {
        lock_recover(&self.inner).entries.contains_key(name)
    }

    /// Remove a named document: drops the entry's lease on it and, under
    /// persistence, appends a deletion record and deletes the segment
    /// file (releasing any quarantined bytes). Returns `false` if the
    /// name is not present — or if the deletion record could not be
    /// made durable, in which case the entry survives for a retry.
    pub fn remove(&self, name: &str) -> bool {
        let mut inner = lock_recover(&self.inner);
        let Some(entry) = inner.entries.get(name) else {
            return false;
        };
        if let (Some(p), Some(d)) = (&self.persist, &entry.durable) {
            let generation = p.next_generation.fetch_add(1, Ordering::Relaxed);
            if p.manifest
                .append(&ManifestRecord::Del {
                    generation,
                    uri: name.to_string(),
                })
                .is_err()
            {
                // Not durable — the segment would resurrect on reopen.
                // Keep the entry consistent with disk and let the caller
                // retry.
                return false;
            }
            let _ = fs::remove_file(p.dir.join(&d.file));
        }
        let e = inner.entries.remove(name).expect("entry checked above");
        inner.uncharge_entry(&e);
        self.quarantined_bytes
            .fetch_sub(e.quarantined_disk_bytes(), Ordering::Relaxed);
        true
    }

    pub fn len(&self) -> usize {
        lock_recover(&self.inner).entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged against the budget (in-memory documents plus
    /// quarantined segments' disk bytes).
    pub fn total_bytes(&self) -> u64 {
        lock_recover(&self.inner).total_bytes
    }

    /// The directory a persistent catalog stores segments in.
    pub(crate) fn persist_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    pub fn stats(&self) -> CatalogStats {
        let inner = lock_recover(&self.inner);
        CatalogStats {
            docs: inner.entries.len() as u64,
            bytes: inner.total_bytes,
            index_bytes: inner.total_index_bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            index_builds: self.index_builds.load(Ordering::Relaxed),
            index_build_nanos: self.index_build_nanos.load(Ordering::Relaxed),
            index_build_failures: self.index_build_failures.load(Ordering::Relaxed),
            segments_written: self.segments_written.load(Ordering::Relaxed),
            segments_recovered: self.segments_recovered.load(Ordering::Relaxed),
            segments_quarantined: self.segments_quarantined.load(Ordering::Relaxed),
            quarantined_bytes: self.quarantined_bytes.load(Ordering::Relaxed),
            pressure_no_index: self.pressure_no_index.load(Ordering::Relaxed),
            cold_start_nanos: self.cold_start_nanos,
        }
    }
}

/// The service engine's name map: every `fn:doc` resolves here.
impl DocumentMap for DocumentCatalog {
    fn put(&self, uri: &str, xml: &str) -> Result<DocId> {
        DocumentCatalog::put(self, uri, xml)
    }

    fn resolve(&self, uri: &str) -> Result<Option<Lease>> {
        DocumentCatalog::resolve(self, uri)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_of_bytes(n: usize) -> String {
        // Rough size control: one text node of n bytes.
        format!("<d>{}</d>", "x".repeat(n))
    }

    /// A catalog on a ledger of its own.
    fn open(
        store: Arc<Store>,
        max_bytes: Option<u64>,
        index_limits: Option<Limits>,
        dir: Option<&Path>,
    ) -> Arc<DocumentCatalog> {
        let ledger = Arc::new(MemoryLedger::unbounded());
        open_on(&ledger, store, max_bytes, index_limits, dir)
    }

    fn open_on(
        ledger: &Arc<MemoryLedger>,
        store: Arc<Store>,
        max_bytes: Option<u64>,
        index_limits: Option<Limits>,
        dir: Option<&Path>,
    ) -> Arc<DocumentCatalog> {
        let dir = dir.map(Path::to_path_buf);
        DocumentCatalog::open(store, max_bytes, index_limits, dir, Arc::clone(ledger)).unwrap()
    }

    /// An engine whose `fn:doc` resolves through `cat`.
    fn engine_over(cat: &Arc<DocumentCatalog>) -> xqr_core::Engine {
        let options = xqr_core::EngineOptions::default();
        xqr_core::Engine::with_documents(options, cat.store.clone(), cat.clone())
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xqr-catalog-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let store = Store::new();
        let cat = open(store.clone(), None, None, None);
        let id = cat.put("a.xml", "<a/>").unwrap();
        assert_eq!(cat.get("a.xml"), Some(id));
        assert_eq!(store.doc_count(), 1);
        assert!(cat.remove("a.xml"));
        assert!(cat.get("a.xml").is_none());
        assert_eq!(store.doc_count(), 0);
        assert!(!cat.remove("a.xml"));
    }

    #[test]
    fn replacement_frees_the_old_document() {
        let store = Store::new();
        let cat = open(store.clone(), None, None, None);
        let old = cat.put("d.xml", &doc_of_bytes(10_000)).unwrap();
        let bytes_before = cat.total_bytes();
        let new = cat.put("d.xml", "<tiny/>").unwrap();
        assert_ne!(old, new);
        assert_eq!(store.doc_count(), 1);
        assert!(cat.total_bytes() < bytes_before);
        assert!(store.try_document(old).is_none(), "old doc was removed");
    }

    #[test]
    fn a_lease_outlives_its_name() {
        let store = Store::new();
        let cat = open(store.clone(), None, None, None);
        cat.put("doc.xml", "<v1/>").unwrap();
        let reader = cat.resolve("doc.xml").unwrap().expect("named");
        assert!(cat.remove("doc.xml"));
        assert!(cat.resolve("doc.xml").unwrap().is_none());
        assert_eq!(store.doc_count(), 1, "the reader's lease holds v1");
        drop(reader);
        assert_eq!(store.doc_count(), 0);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let store = Store::new();
        // Budget for roughly two of the three documents.
        let one_doc = {
            let probe = Store::new().lease_xml(&doc_of_bytes(10_000), None);
            probe.unwrap().doc.memory_bytes() as u64
        };
        let ledger = Arc::new(MemoryLedger::unbounded());
        let budget = Some(one_doc * 2 + one_doc / 2);
        let cat = open_on(&ledger, store.clone(), budget, None, None);
        cat.put("a.xml", &doc_of_bytes(10_000)).unwrap();
        cat.put("b.xml", &doc_of_bytes(10_000)).unwrap();
        cat.get("a.xml"); // refresh a: b becomes the LRU victim
        cat.put("c.xml", &doc_of_bytes(10_000)).unwrap();
        assert_eq!(cat.len(), 2);
        assert!(cat.contains("a.xml"));
        assert!(!cat.contains("b.xml"), "b was least recently used");
        assert!(cat.contains("c.xml"));
        assert_eq!(cat.stats().evictions, 1);
        assert_eq!(store.doc_count(), 2);
        assert!(cat.total_bytes() <= one_doc * 2 + one_doc / 2);
        assert_eq!(
            ledger.total(),
            cat.total_bytes(),
            "the dropped victim was released"
        );
    }

    #[test]
    fn oversized_document_is_admitted_alone() {
        let store = Store::new();
        let cat = open(store.clone(), Some(64), None, None);
        cat.put("small.xml", "<s/>").unwrap();
        cat.put("big.xml", &doc_of_bytes(100_000)).unwrap();
        // The oversized doc evicted everything else but stays itself.
        assert_eq!(cat.len(), 1);
        assert!(cat.contains("big.xml"));
    }

    #[test]
    fn indexing_catalog_attaches_and_accounts_indexes() {
        let store = Store::new();
        let cat = open(store.clone(), None, Some(Limits::unlimited()), None);
        let id = cat.put("a.xml", "<a><b/><b/></a>").unwrap();
        let index = xqr_index::index_of(&store, id).expect("index attached");
        assert!(index.memory_bytes() > 0);
        let stats = cat.stats();
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.index_bytes, index.memory_bytes() as u64);
        assert!(
            stats.bytes > store.document(id).memory_bytes() as u64,
            "index bytes count against the budget"
        );
        // Removal frees the index accounting along with the document.
        assert!(cat.remove("a.xml"));
        let stats = cat.stats();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.index_bytes, 0);
        assert!(xqr_index::index_of(&store, id).is_none());
    }

    #[test]
    fn index_build_budget_trip_leaves_document_unindexed() {
        let store = Store::new();
        let cat = open(
            store.clone(),
            None,
            Some(Limits::unlimited().with_max_items(2)),
            None,
        );
        let id = cat.put("a.xml", "<a><b/><b/><b/><b/></a>").unwrap();
        assert!(xqr_index::index_of(&store, id).is_none());
        let stats = cat.stats();
        assert_eq!(stats.index_builds, 0);
        assert_eq!(stats.index_bytes, 0);
        assert_eq!(stats.docs, 1, "the document itself is still live");
    }

    /// The unindexed-load rung of the ladder: an index build that fails
    /// leaves the document resident and unindexed — for a catalog entry
    /// and for a publish's transient copy alike — and navigation gives
    /// the indexed answers.
    #[test]
    fn failing_index_builds_serve_put_and_transient_loads_unindexed() {
        use xqr_core::{DynamicContext, Item};
        use xqr_faults::{FaultKind, FaultRule, FaultSchedule};
        let xml = "<bib><book><author/><title>a</title></book><book><title>b</title></book></bib>";
        let run = |fail_builds: bool| {
            let catalog = open(Store::new(), None, Some(Limits::unlimited()), None);
            let engine = engine_over(&catalog);
            let (entry, transient) = {
                let _guard = fail_builds.then(|| {
                    xqr_faults::install(
                        FaultSchedule::new(3)
                            .rule(FaultRule::new("index.build", FaultKind::ErrorReturn)),
                    )
                });
                (
                    catalog.put("bib.xml", xml).unwrap(),
                    catalog
                        .lease_transient(Document::parse(xml, engine.names().clone()).unwrap())
                        .unwrap(),
                )
            };
            let indexed =
                [entry, transient.id].map(|id| xqr_index::index_of(engine.store(), id).is_some());
            let ctx = DynamicContext::new().with_context_item(Item::Node(transient.root()));
            let answers = [
                engine.query(r#"doc("bib.xml")//book[author]/title"#),
                engine.query(r#"count(doc("bib.xml")//title)"#),
                engine
                    .compile("//book[author]/title")
                    .and_then(|q| q.execute(&engine, &ctx)?.serialize_guarded()),
            ]
            .map(|a| a.unwrap());
            (indexed, answers, catalog.stats())
        };

        let (indexed, expected, stats) = run(false);
        assert_eq!(indexed, [true, true]);
        assert_eq!((stats.index_builds, stats.index_build_failures), (2, 0));

        let (indexed, answers, stats) = run(true);
        assert_eq!(indexed, [false, false], "both stay unindexed");
        assert_eq!((stats.index_builds, stats.index_build_failures), (0, 2));
        assert_eq!(stats.docs, 1, "the entry is live");
        assert_eq!(answers, expected, "navigation answers byte-identically");
    }

    #[test]
    fn evicted_documents_vanish_from_doc_function() {
        let cat = open(Store::new(), Some(1), None, None);
        let engine = engine_over(&cat);
        cat.put("a.xml", "<a><b/></a>").unwrap();
        assert_eq!(engine.query(r#"count(doc("a.xml")//b)"#).unwrap(), "1");
        cat.put("z.xml", "<z/>").unwrap(); // budget of 1 byte: evicts a.xml
        assert!(!cat.contains("a.xml"));
        let err = engine.query(r#"doc("a.xml")"#).unwrap_err();
        assert_eq!(err.code, xqr_xdm::ErrorCode::DocumentNotFound);
    }

    #[test]
    fn persistent_put_survives_reopen() {
        let dir = scratch("reopen");
        let store = Store::new();
        let cat = open(store, None, Some(Limits::unlimited()), Some(&dir));
        cat.put("a.xml", "<a><b/><b/></a>").unwrap();
        assert_eq!(cat.stats().segments_written, 1);
        drop(cat); // simulated shutdown: only the fsynced files survive

        let store = Store::new();
        let cat = open(store.clone(), None, None, Some(&dir));
        assert!(cat.contains("a.xml"));
        assert_eq!(store.doc_count(), 0, "adoption is lazy");
        let id = cat.get("a.xml").expect("reloads from segment");
        assert_eq!(store.doc_count(), 1);
        assert_eq!(cat.stats().segments_recovered, 1);
        // The reload attached the stored index.
        assert!(xqr_index::index_of(&store, id).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Eviction and reload are free: a document re-adopted from its
    /// segment is charged exactly what its `put` charged — in the
    /// catalog's totals, its index share, and the ledger.
    #[test]
    fn readopted_document_costs_what_its_put_cost() {
        let dir = scratch("readopt");
        let ledger = Arc::new(MemoryLedger::unbounded());
        // A one-byte budget holds exactly one document: each put or
        // reload evicts the other.
        let cat = open_on(
            &ledger,
            Store::new(),
            Some(1),
            Some(Limits::unlimited()),
            Some(&dir),
        );
        let charge = || {
            let stats = cat.stats();
            let resident = ledger
                .snapshot()
                .category(Category::CatalogResident)
                .current;
            (stats.bytes, stats.index_bytes, resident)
        };
        let a = r#"<lib><book year="1967"><title>P&amp;E</title><author>L</author></book><book year="2004"><title>XQP</title></book></lib>"#;
        cat.put("a.xml", a).unwrap();
        let put = charge();
        assert!(put.1 > 0, "a has an index");
        cat.put("b.xml", "<b><c/></b>").unwrap();
        assert_eq!(cat.stats().evictions, 1, "a was demoted");
        cat.resolve("a.xml").unwrap().expect("a reloads");
        assert_eq!(cat.stats().segments_recovered, 1);
        assert_eq!(charge(), put);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ledger_tracks_resident_bytes_through_every_transition() {
        let dir = scratch("ledger");
        let ledger = Arc::new(MemoryLedger::unbounded());
        let resident = || {
            ledger
                .snapshot()
                .category(Category::CatalogResident)
                .current
        };
        let cat = open_on(
            &ledger,
            Store::new(),
            None,
            Some(Limits::unlimited()),
            Some(&dir),
        );
        assert_eq!(resident(), 0);

        cat.put("a.xml", &doc_of_bytes(2_000)).unwrap();
        assert!(resident() > 2_000);
        assert_eq!(resident(), cat.total_bytes(), "put");
        cat.put("b.xml", &doc_of_bytes(1_000)).unwrap();
        assert_eq!(resident(), cat.total_bytes(), "second put");
        let before = resident();
        cat.put("a.xml", &doc_of_bytes(500)).unwrap();
        assert!(resident() < before, "the replaced document was released");
        assert_eq!(resident(), cat.total_bytes(), "replace");

        let half = cat.total_bytes() / 2;
        cat.shed_cold(half);
        assert!(cat.total_bytes() <= half, "shed to the target");
        assert!(cat.stats().evictions >= 1);
        assert!(
            cat.contains("a.xml") && cat.contains("b.xml"),
            "demoted, not dropped"
        );
        assert_eq!(resident(), cat.total_bytes(), "demote");
        cat.shed_cold(0);
        assert_eq!((resident(), cat.total_bytes()), (0, 0), "all demoted");
        cat.get("a.xml").expect("reload after demotion");
        assert!(resident() > 500);
        assert_eq!(resident(), cat.total_bytes(), "reload");

        assert!(cat.remove("a.xml"));
        assert_eq!(resident(), 0, "remove");
        cat.get("b.xml").expect("reload after demotion");
        assert_eq!(resident(), cat.total_bytes());
        assert!(resident() > 0);
        drop(cat);
        assert_eq!(ledger.total(), 0, "a dropped catalog gives its bytes back");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn brownout_skips_index_builds_but_serves_documents() {
        // A tiny ceiling already in Yellow before the catalog charges.
        let ledger = Arc::new(MemoryLedger::new(
            xqr_pressure::PressureConfig::with_ceiling(1_000),
        ));
        ledger.charge(Category::QueryOutput, 800); // 80% > yellow_enter
        assert!(ledger.state() >= PressureState::Yellow);

        let store = Store::new();
        let cat = open_on(
            &ledger,
            store.clone(),
            None,
            Some(Limits::unlimited()),
            None,
        );
        let id = cat.put("a.xml", "<a><b/><b/></a>").unwrap();
        assert!(
            xqr_index::index_of(&store, id).is_none(),
            "no index under pressure"
        );
        let stats = cat.stats();
        assert_eq!(stats.index_builds, 0);
        assert_eq!(stats.pressure_no_index, 1);
        assert_eq!(stats.docs, 1, "the document itself still loads");

        // Pressure clears: the next load builds its index again.
        ledger.release(Category::QueryOutput, 800);
        assert_eq!(ledger.state(), PressureState::Green);
        let id2 = cat.put("b.xml", "<b><c/></b>").unwrap();
        assert!(xqr_index::index_of(&store, id2).is_some());
    }

    #[test]
    fn persistent_remove_is_durable() {
        let dir = scratch("remove");
        {
            let cat = open(Store::new(), None, None, Some(&dir));
            cat.put("a.xml", "<a/>").unwrap();
            cat.put("b.xml", "<b/>").unwrap();
            assert!(cat.remove("a.xml"));
        }
        let cat = open(Store::new(), None, None, Some(&dir));
        assert!(!cat.contains("a.xml"), "deletion replayed from manifest");
        assert!(cat.contains("b.xml"));
        let _ = fs::remove_dir_all(&dir);
    }
}
