//! `catalog_churn`: writes beside reads. 32 named ~256 KiB documents live
//! in a catalog whose byte budget holds a quarter of them — half of the
//! sixteen names one client works on — backed by a persistent segment
//! directory. One operation in ten replaces a Zipf-chosen name with a new
//! version; the other nine run a cached-plan path query on a Zipf-chosen
//! name, so reads meet resident documents, evicted ones (re-adopted from
//! their mmap segments) and freshly written ones. It is the only workload
//! with the store's load and label pass, the index build, the segment
//! write and adopt, and the catalog's LRU on the blocking path.
//!
//! **The discipline this workload keeps, and why.** A query that is still
//! evaluating over a document when another thread replaces or evicts it
//! fails with "stale DocId … removed from the store", and a benchmark runs
//! workloads on which no operation fails. So, as an embedder must today:
//!
//! - each client reads and writes its own half of the names — the two
//!   share the catalog, its budget and its lock, but never a name;
//! - a read first calls `catalog().resolve(name)`, which re-adopts an
//!   evicted document and moves the name to the young end of the LRU
//!   order (a query over a resident document does not);
//! - whatever can evict — a load, a resolve — holds `residency`
//!   exclusively, and a query holds it shared. Touching alone left about
//!   one read in 30,000 failing: its evaluation thread was kept off the
//!   CPU long enough for the other client to evict seven documents.
//!
//! Waiting for `residency` is inside the measured latency: it is what the
//! caller of such an embedder would see.
//!
//! Flush policy: the service's default — every segment write is
//! temp-file + fsync + rename + directory fsync, every manifest append
//! is fsynced — on whatever file system the checkout sits on.

use super::{report_failure, service_config, timed, traced_query, OpOutcome, Workload, CLIENTS};
use crate::inputs::{
    catalog_body, catalog_doc, rng_for, shuffle, BlockMix, CatalogBody, Zipf, CATALOG_PRICE_FLOOR,
};
use crate::json::Json;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use xqr_index::DocIndex;
use xqr_segment::{segment_bytes, write_segment_file, Segment};
use xqr_service::{QueryService, ServiceConfig};
use xqr_store::Document;

const DOCS: usize = 32;
const DOC_BYTES: usize = 256 * 1024;
/// The catalog's budget, in documents: half of one client's names.
const RESIDENT_DOCS: u64 = (DOCS / CLIENTS / 2) as u64;
/// Writes and reads per block of ten operations.
const MIX: [usize; 2] = [1, 9];

/// Scratch directories live beside the crate, inside the checkout, and
/// are removed when the workload drops.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".run")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).expect("the scratch directory can be created");
    dir
}

pub struct CatalogChurn {
    service: QueryService,
    seed: u64,
    dir: PathBuf,
    /// Where the traced run's segment probes write, apart from the
    /// service's own directory.
    probe_dir: PathBuf,
    names: Vec<String>,
    queries: Vec<String>,
    bodies: Vec<CatalogBody>,
    /// Per client, popularity rank → document: which of its names are
    /// hot is seeded.
    by_rank: Vec<Vec<usize>>,
    zipf: Zipf,
    /// Per document, the last version a load acknowledged; a read must
    /// return exactly this stamp.
    versions: Vec<AtomicU64>,
    /// Held exclusively by whatever may evict, shared by evaluations.
    residency: RwLock<()>,
    budget_bytes: u64,
}

pub struct Client {
    /// Which half of the names this client owns.
    half: usize,
    mix: BlockMix,
    rng: StdRng,
}

fn name_of(doc: usize) -> String {
    format!("doc{doc:02}.xml")
}

impl CatalogChurn {
    fn evicting(&self) -> RwLockWriteGuard<'_, ()> {
        self.residency
            .write()
            .expect("no operation panics while it holds the residency lock")
    }

    fn evaluating(&self) -> RwLockReadGuard<'_, ()> {
        self.residency
            .read()
            .expect("no operation panics while it holds the residency lock")
    }

    fn pick(&self, client: &mut Client) -> usize {
        self.by_rank[client.half][self.zipf.sample(&mut client.rng)]
    }

    /// Next version of `doc`, as text ready to load.
    fn next_version(&self, doc: usize) -> (u64, String) {
        let version = self.versions[doc].load(Ordering::SeqCst) + 1;
        (version, catalog_doc(version, &self.bodies[doc].body))
    }

    /// A read's reply is `"<version> <count>"`.
    fn read_is_correct(&self, doc: usize, reply: &str) -> bool {
        let expected = format!(
            "{} {}",
            self.versions[doc].load(Ordering::SeqCst),
            self.bodies[doc].pricey
        );
        reply == expected
    }

    fn write_outcome(
        &self,
        doc: usize,
        version: u64,
        xml_len: usize,
        reply: xqr_xdm::Result<xqr_store::DocId>,
        ns: u64,
    ) -> OpOutcome {
        match &reply {
            Ok(_) => self.versions[doc].store(version, Ordering::SeqCst),
            Err(e) => report_failure(Self::NAME, format_args!("load of {}: {e}", self.names[doc])),
        }
        OpOutcome::replied(reply.is_ok(), ns, xml_len as u64)
    }

    fn read_outcome(&self, doc: usize, reply: xqr_xdm::Result<String>, ns: u64) -> OpOutcome {
        let sent = self.queries[doc].len();
        match reply {
            Ok(out) => {
                let ok = self.read_is_correct(doc, &out);
                if !ok {
                    report_failure(
                        Self::NAME,
                        format_args!("read of {}: {out:?}", self.names[doc]),
                    );
                }
                OpOutcome::replied(ok, ns, (sent + out.len()) as u64)
            }
            Err(e) => {
                report_failure(Self::NAME, format_args!("read of {}: {e}", self.names[doc]));
                OpOutcome::replied(false, ns, sent as u64)
            }
        }
    }

    /// The layers under a load, one probe span each, on `xml`: the store's
    /// parse-and-label pass, the index build, the segment encoding, the
    /// crash-safe file write, and the mmap adopt of what was written.
    fn probe_load_layers(&self, tracer: &mut Tracer, xml: &str) {
        let names = self.service.engine().names().clone();
        let doc: Arc<Document> = tracer.span("probe.store.load", |_| {
            Document::parse_with_uri(xml, names.clone(), Some("probe.xml"))
                .expect("a generated catalog document parses")
        });
        tracer.count("store.load_bytes", xml.len() as u64);
        tracer.count("store.nodes", doc.len() as u64);
        tracer.count("store.doc_bytes", doc.memory_bytes() as u64);
        let index = tracer.span("probe.index.build", |_| {
            DocIndex::build(&doc).expect("an unguarded index build succeeds")
        });
        tracer.count("index.nodes", doc.len() as u64);
        tracer.count("index.bytes", index.memory_bytes() as u64);
        let blob = tracer.span("probe.segment.encode", |_| {
            segment_bytes(&doc, &index).expect("a document and its index encode")
        });
        tracer.span("probe.segment.write", |_| {
            write_segment_file(&self.probe_dir, "probe.seg", &blob)
                .expect("the probe segment can be written")
        });
        tracer.count("segment.input_bytes", xml.len() as u64);
        tracer.count("segment.bytes", blob.len() as u64);
        tracer.span("probe.segment.adopt", |_| {
            let seg = Segment::open(&self.probe_dir.join("probe.seg"))
                .expect("the probe segment verifies");
            seg.load(&names).expect("the probe segment materializes")
        });
        tracer.count("segment.adopts", 1);
    }
}

impl Workload for CatalogChurn {
    const NAME: &'static str = "catalog_churn";
    type Client = Client;

    fn setup(seed: u64) -> Self {
        let mut rng = rng_for(seed, 400);
        let bodies: Vec<CatalogBody> = (0..DOCS)
            .map(|_| catalog_body(&mut rng, DOC_BYTES))
            .collect();
        let names: Vec<String> = (0..DOCS).map(name_of).collect();
        let queries: Vec<String> = names
            .iter()
            .map(|n| {
                format!(
                    "(string(doc(\"{n}\")/catalog/@version), \
                     count(doc(\"{n}\")/catalog/entry[price >= {CATALOG_PRICE_FLOOR}]))"
                )
            })
            .collect();
        let by_rank: Vec<Vec<usize>> = (0..CLIENTS)
            .map(|half| {
                let mut mine: Vec<usize> = (0..DOCS).filter(|d| d % CLIENTS == half).collect();
                shuffle(&mut mine, &mut rng);
                mine
            })
            .collect();

        // What one document costs the catalog (parsed form plus index),
        // so the budget is half the working set whatever the generator
        // and the store's layout make of 256 KiB.
        let first = catalog_doc(1, &bodies[0].body);
        let resident_bytes = {
            let probe = Document::parse(&first, Arc::new(xqr_xdm::NamePool::new()))
                .expect("a generated catalog document parses");
            let index = DocIndex::build(&probe).expect("an unguarded index build succeeds");
            (probe.memory_bytes() + index.memory_bytes()) as u64
        };
        let budget_bytes = RESIDENT_DOCS * resident_bytes;

        let dir = scratch_dir("catalog");
        let service = QueryService::open(ServiceConfig {
            catalog_max_bytes: Some(budget_bytes),
            persist_dir: Some(dir.clone()),
            ..service_config()
        })
        .expect("a fresh segment directory opens");
        for (doc, name) in names.iter().enumerate() {
            service
                .load_document(name, &catalog_doc(1, &bodies[doc].body))
                .expect("a generated catalog document loads");
            service
                .prepare(&queries[doc])
                .expect("the read query compiles");
        }
        CatalogChurn {
            service,
            seed,
            dir,
            probe_dir: scratch_dir("probe"),
            names,
            queries,
            bodies,
            by_rank,
            zipf: Zipf::new(DOCS / CLIENTS),
            versions: (0..DOCS).map(|_| AtomicU64::new(1)).collect(),
            residency: RwLock::new(()),
            budget_bytes,
        }
    }

    fn client(&self, index: usize) -> Client {
        Client {
            half: index % CLIENTS,
            mix: BlockMix::new(&MIX, rng_for(self.seed, 410 + index as u64)),
            rng: rng_for(self.seed, 450 + index as u64),
        }
    }

    fn run_op(&self, client: &mut Client) -> OpOutcome {
        let write = client.mix.next_kind() == 0;
        let doc = self.pick(client);
        if write {
            let (version, xml) = self.next_version(doc);
            let (reply, ns) = timed(|| {
                let _evicting = self.evicting();
                self.service.load_document(&self.names[doc], &xml)
            });
            self.write_outcome(doc, version, xml.len(), reply, ns)
        } else {
            let (reply, ns) = timed(|| {
                {
                    let _evicting = self.evicting();
                    self.service.catalog().resolve(&self.names[doc])?;
                }
                let _evaluating = self.evaluating();
                self.service.run(&self.queries[doc])
            });
            self.read_outcome(doc, reply, ns)
        }
    }

    fn traced_op(&self, client: &mut Client, tracer: &mut Tracer) -> OpOutcome {
        let write = client.mix.next_kind() == 0;
        let doc = self.pick(client);
        tracer.span("op", |t| {
            if write {
                let (version, xml) = self.next_version(doc);
                self.probe_load_layers(t, &xml);
                let (reply, ns) = timed(|| {
                    t.span("service.load_document", |_| {
                        self.service.load_document(&self.names[doc], &xml)
                    })
                });
                t.count("service.load_bytes", xml.len() as u64);
                self.write_outcome(doc, version, xml.len(), reply, ns)
            } else {
                let (reply, ns) = timed(|| {
                    traced_query(
                        &self.service,
                        t,
                        &self.queries[doc],
                        &self.names[doc],
                        "hit",
                        "read",
                    )
                });
                self.read_outcome(doc, reply, ns)
            }
        })
    }

    fn service(&self) -> &QueryService {
        &self.service
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("documents", Json::Num(DOCS as f64)),
            ("document_bytes", Json::Num(DOC_BYTES as f64)),
            ("catalog_budget_bytes", Json::Num(self.budget_bytes as f64)),
            ("write_share", Json::Num(0.1)),
            (
                "flush_policy",
                Json::str("service default: fsync per segment write and manifest append"),
            ),
        ])
    }
}

impl Drop for CatalogChurn {
    fn drop(&mut self) {
        // Best effort: a directory that cannot be removed is left for the
        // next run's `.gitignore`d `.run/` to hold.
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir_all(&self.probe_dir);
        // Succeeds only once the last scratch directory is gone.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
