//! Qualified names and the interning pool shared by every layer of the engine.
//!
//! The talk's TokenStream substrate relies on dictionary compression of
//! QNames ("pooling: store strings only once — works for all QNames"); the
//! [`NamePool`] is that dictionary. Every parsed or constructed name is
//! interned once and referred to by a dense [`NameId`] thereafter, so
//! name-test comparisons in path steps and structural joins are integer
//! compares, never string compares.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// An expanded qualified name: optional namespace URI, optional prefix and
/// a local part. Per the XPath data model, equality ignores the prefix.
#[derive(Debug, Clone)]
pub struct QName {
    ns: Option<Arc<str>>,
    prefix: Option<Arc<str>>,
    local: Arc<str>,
}

impl QName {
    /// A name with no namespace, e.g. `book`.
    pub fn local(local: &str) -> Self {
        QName {
            ns: None,
            prefix: None,
            local: Arc::from(local),
        }
    }

    /// A name in a namespace with no prefix (default-namespace binding).
    pub fn ns(ns: &str, local: &str) -> Self {
        QName {
            ns: Some(Arc::from(ns)),
            prefix: None,
            local: Arc::from(local),
        }
    }

    /// A fully spelled-out name, e.g. `amz:ref` in `www.amazon.com`.
    pub fn prefixed(ns: &str, prefix: &str, local: &str) -> Self {
        QName {
            ns: Some(Arc::from(ns)),
            prefix: Some(Arc::from(prefix)),
            local: Arc::from(local),
        }
    }

    pub fn namespace(&self) -> Option<&str> {
        self.ns.as_deref()
    }

    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    pub fn local_name(&self) -> &str {
        &self.local
    }

    /// The lexical form used for serialization: `prefix:local` when a
    /// prefix is known, otherwise just the local part.
    pub fn lexical(&self) -> String {
        match &self.prefix {
            Some(p) => format!("{}:{}", p, self.local),
            None => self.local.to_string(),
        }
    }

    /// Clark notation `{uri}local`, convenient for diagnostics.
    pub(crate) fn clark(&self) -> String {
        match &self.ns {
            Some(ns) => format!("{{{}}}{}", ns, self.local),
            None => self.local.to_string(),
        }
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.local == other.local && self.ns.as_deref() == other.ns.as_deref()
    }
}
impl Eq for QName {}

impl std::hash::Hash for QName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.ns.as_deref().hash(state);
        self.local.hash(state);
    }
}

/// An expanded name as its parts, `(namespace, local)`: the key the
/// pool's index is searched by, so that a name given as parts is found
/// without building a [`QName`]. Hashes and compares as `QName` does.
trait NameKey {
    fn parts(&self) -> (Option<&str>, &str);
}

impl NameKey for QName {
    fn parts(&self) -> (Option<&str>, &str) {
        (self.ns.as_deref(), &self.local)
    }
}

impl NameKey for (Option<&str>, &str) {
    fn parts(&self) -> (Option<&str>, &str) {
        *self
    }
}

impl<'a> std::borrow::Borrow<dyn NameKey + 'a> for QName {
    fn borrow(&self) -> &(dyn NameKey + 'a) {
        self
    }
}

impl std::hash::Hash for dyn NameKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let (ns, local) = self.parts();
        ns.hash(state);
        local.hash(state);
    }
}

impl PartialEq for dyn NameKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}
impl Eq for dyn NameKey + '_ {}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ns.as_deref(), &*self.local).cmp(&(other.ns.as_deref(), &*other.local))
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.lexical())
    }
}

/// Dense identifier of an interned name. `NameId(0)` is reserved for the
/// anonymous/absent name so token encodings can use 0 as "no name".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    pub const NONE: NameId = NameId(0);

    pub fn is_none(self) -> bool {
        self == Self::NONE
    }
}

/// Buckets of the pool's read side: bucket `b` holds the `2^b` ids
/// `2^b - 1 ..= 2^(b+1) - 2`, so 32 of them cover every `u32` id but the
/// last and a bucket, once allocated, never moves.
const BUCKETS: usize = 32;

/// Which bucket holds `id`, and where in it.
fn locate(id: NameId) -> (usize, usize) {
    let i = id.0 as u64 + 1;
    let b = i.ilog2() as usize;
    (b, (i - (1 << b)) as usize)
}

/// Thread-safe interning pool mapping [`QName`]s to dense [`NameId`]s.
///
/// One pool is shared by a whole engine instance; documents parsed under
/// the same pool can be joined by integer name comparison.
///
/// Interning takes a lock: the name-to-id index is a map behind an
/// `RwLock`. The id-to-name side is append-only and lock-free: `intern`
/// fills a name's slot while it holds the write lock, before the id is
/// handed to anyone, and a slot is never written again. [`Self::resolve`]
/// is therefore two atomic loads and a borrow — no lock, no refcount.
pub struct NamePool {
    index: RwLock<HashMap<QName, NameId>>,
    slots: [OnceLock<Box<[OnceLock<QName>]>>; BUCKETS],
    /// Names interned so far. Stored (`Release`) only after the new
    /// name's slot is filled; `len()` loads it with `Acquire`, so every
    /// id below it resolves.
    len: AtomicU32,
}

impl NamePool {
    pub fn new() -> Self {
        let pool = NamePool {
            index: RwLock::new(HashMap::new()),
            slots: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU32::new(0),
        };
        // Slot 0: the absent name.
        pool.intern(&QName::local(""));
        pool
    }

    /// Intern a name, returning its dense id (idempotent).
    pub fn intern(&self, name: &QName) -> NameId {
        if let Some(id) = self.get(name) {
            return id;
        }
        let mut index = self.index.write();
        if let Some(id) = index.get(name) {
            return *id;
        }
        let id = NameId(self.len.load(Ordering::Relaxed));
        let (b, i) = locate(id);
        let bucket =
            self.slots[b].get_or_init(|| (0..1usize << b).map(|_| OnceLock::new()).collect());
        let fresh = bucket[i].set(name.clone()).is_ok();
        debug_assert!(fresh, "name slots are written once");
        index.insert(name.clone(), id);
        self.len.store(id.0 + 1, Ordering::Release);
        id
    }

    /// [`Self::intern`] of the name `local` in namespace `ns`, spelled
    /// with `prefix` if the pool has not seen it: an interned name is
    /// found by its parts, building no `QName`.
    pub fn intern_parts(&self, ns: Option<&str>, prefix: Option<&str>, local: &str) -> NameId {
        let key = (ns, local);
        if let Some(id) = self.index.read().get(&key as &dyn NameKey) {
            return *id;
        }
        self.intern(&match (ns, prefix) {
            (None, _) => QName::local(local),
            (Some(ns), None) => QName::ns(ns, local),
            (Some(ns), Some(p)) => QName::prefixed(ns, p, local),
        })
    }

    /// Shorthand for interning a no-namespace name.
    pub fn intern_local(&self, local: &str) -> NameId {
        self.intern(&QName::local(local))
    }

    /// Resolve an id back to the full name, borrowed from the pool.
    /// Panics on an id from a different pool, which is a logic error by
    /// construction.
    pub fn resolve(&self, id: NameId) -> &QName {
        let (b, i) = locate(id);
        self.slots[b]
            .get()
            .and_then(|bucket| bucket[i].get())
            .expect("name id from another pool")
    }

    /// Number of distinct names interned so far (incl. the absent name).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Look up without interning.
    pub fn get(&self, name: &QName) -> Option<NameId> {
        self.index.read().get(name).copied()
    }
}

impl Default for NamePool {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for NamePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NamePool({} names)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_by_parts_finds_the_interned_name() {
        let pool = NamePool::new();
        let a = pool.intern(&QName::prefixed("urn:x", "a", "name"));
        assert_eq!(pool.intern_parts(Some("urn:x"), Some("b"), "name"), a);
        assert_eq!(pool.intern_parts(None, None, ""), NameId::NONE);
        let fresh = pool.intern_parts(Some("urn:y"), Some("p"), "name");
        assert_ne!(fresh, a);
        assert_eq!(pool.resolve(fresh).prefix(), Some("p"));
        assert_eq!(pool.get(&QName::ns("urn:y", "name")), Some(fresh));
        assert_eq!(
            pool.intern_parts(None, None, "name"),
            pool.intern_local("name")
        );
    }

    #[test]
    fn equality_ignores_prefix() {
        let a = QName::prefixed("urn:x", "a", "name");
        let b = QName::prefixed("urn:x", "b", "name");
        assert_eq!(a, b);
        let c = QName::ns("urn:x", "name");
        assert_eq!(a, c);
    }

    #[test]
    fn equality_distinguishes_namespace() {
        let a = QName::ns("urn:x", "name");
        let b = QName::ns("urn:y", "name");
        assert_ne!(a, b);
        assert_ne!(QName::local("name"), a);
    }

    #[test]
    fn intern_is_idempotent() {
        let pool = NamePool::new();
        let id1 = pool.intern(&QName::local("book"));
        let id2 = pool.intern(&QName::local("book"));
        assert_eq!(id1, id2);
        assert_eq!(pool.resolve(id1).local_name(), "book");
    }

    #[test]
    fn intern_distinguishes_namespaces() {
        let pool = NamePool::new();
        let id1 = pool.intern(&QName::local("book"));
        let id2 = pool.intern(&QName::ns("urn:lib", "book"));
        assert_ne!(id1, id2);
    }

    #[test]
    fn prefix_does_not_split_pool_entries() {
        let pool = NamePool::new();
        let id1 = pool.intern(&QName::prefixed("urn:lib", "a", "book"));
        let id2 = pool.intern(&QName::prefixed("urn:lib", "b", "book"));
        assert_eq!(id1, id2);
    }

    #[test]
    fn none_id_is_reserved() {
        let pool = NamePool::new();
        assert_eq!(pool.len(), 1);
        let id = pool.intern(&QName::local("x"));
        assert!(!id.is_none());
        assert!(NameId::NONE.is_none());
    }

    #[test]
    fn clark_and_lexical_forms() {
        let q = QName::prefixed("urn:lib", "l", "book");
        assert_eq!(q.clark(), "{urn:lib}book");
        assert_eq!(q.lexical(), "l:book");
        assert_eq!(QName::local("book").clark(), "book");
    }

    #[test]
    fn ids_round_trip_across_bucket_boundaries() {
        let pool = NamePool::new();
        let names: Vec<QName> = (1..=1030)
            .map(|i| QName::ns("urn:b", &format!("n{i}")))
            .collect();
        let ids: Vec<NameId> = names.iter().map(|q| pool.intern(q)).collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.0 as usize, k + 1, "ids are dense");
        }
        for id in [0, 1, 2, 3, 6, 7, 8, 14, 15, 1022, 1023, 1024, 1030] {
            let (b, i) = locate(NameId(id));
            assert!(i < 1 << b, "id {id} lies inside bucket {b}");
            if id == 0 {
                assert_eq!(pool.resolve(NameId::NONE), &QName::local(""));
            } else {
                assert_eq!(pool.resolve(NameId(id)), &names[id as usize - 1], "id {id}");
            }
        }
        assert_eq!(locate(NameId(1022)).0 + 1, locate(NameId(1023)).0);
        assert_eq!(pool.len(), 1031);
    }

    #[test]
    fn concurrent_interns_and_resolves_agree() {
        use std::collections::HashMap;
        use std::sync::Mutex;
        let pool = NamePool::new();
        let seen: Mutex<HashMap<NameId, QName>> = Mutex::new(HashMap::new());
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|t| {
                    let (pool, seen) = (&pool, &seen);
                    s.spawn(move || {
                        // Overlapping ranges: each name is interned by two threads.
                        for k in 0..600 {
                            let q = QName::ns("urn:c", &format!("n{}", t * 300 + k));
                            let id = pool.intern(&q);
                            if let Some(prev) = seen.lock().unwrap().insert(id, q.clone()) {
                                assert_eq!(prev, q, "one id, one name");
                            }
                        }
                    })
                })
                .collect();
            for _ in 0..4 {
                let (pool, seen, done) = (&pool, &seen, &done);
                s.spawn(move || loop {
                    let finished = done.load(Ordering::Acquire);
                    // Every id below `len()` is resolvable without a lock.
                    for id in 0..pool.len() as u32 {
                        pool.resolve(NameId(id));
                    }
                    let snapshot: Vec<(NameId, QName)> = seen
                        .lock()
                        .unwrap()
                        .iter()
                        .map(|(i, q)| (*i, q.clone()))
                        .collect();
                    for (id, q) in snapshot {
                        assert_eq!(pool.resolve(id), &q);
                        assert!((id.0 as usize) < pool.len());
                    }
                    if finished {
                        break;
                    }
                });
            }
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Release);
        });
        let seen = seen.into_inner().unwrap();
        // 4 threads x 600 names over 300-wide strides: 1,500 distinct names.
        assert_eq!(seen.len(), 1500);
        assert_eq!(pool.len(), 1501);
        let mut ids: Vec<u32> = seen.keys().map(|i| i.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=1500).collect::<Vec<_>>(), "ids stay dense");
    }

    #[test]
    fn get_does_not_intern() {
        let pool = NamePool::new();
        assert!(pool.get(&QName::local("zzz")).is_none());
        pool.intern_local("zzz");
        assert!(pool.get(&QName::local("zzz")).is_some());
    }
}
