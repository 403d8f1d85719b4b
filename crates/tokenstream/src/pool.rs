//! String pooling — the TokenStream's dictionary compression.
//!
//! "Pooling: store strings only once (dictionary-based compression);
//! works for all QNames (names and types) and text." Interning is
//! hash-based; [`StrId`]s are dense, so the wire encoder can emit each
//! string definition once and reference it by id afterwards.

use crate::token::StrId;
use std::collections::HashMap;
use std::sync::Arc;

/// An append-only interning pool of strings. Not thread-safe by design:
/// one pool belongs to one `TokenStream` under construction.
///
/// Streaming consumers that resolve every id before pulling the next
/// token can additionally call `StringPool::recycle` between tokens,
/// capping the pool at a working window instead of every unique string
/// in the document.
#[derive(Debug, Default, Clone)]
pub struct StringPool {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, StrId>,
    /// Id of `strings[0]`; ids below it were recycled away.
    base: u32,
    /// Cached sum of pooled string lengths, so byte-budget checks are
    /// O(1) on the streaming hot path.
    payload: usize,
}

impl StringPool {
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(&self, id: StrId) -> usize {
        id.0.checked_sub(self.base)
            .expect("stale StrId: the pooled string was recycled") as usize
    }

    /// Intern a string, returning its dense id.
    pub fn intern(&mut self, s: &str) -> StrId {
        if let Some(id) = self.index.get(s) {
            return *id;
        }
        let arc: Arc<str> = Arc::from(s);
        let id = StrId(
            self.base
                .checked_add(self.strings.len() as u32)
                .expect("string pool id space exhausted"),
        );
        self.payload += arc.len();
        self.strings.push(arc.clone());
        self.index.insert(arc, id);
        id
    }

    pub fn get(&self, id: StrId) -> &str {
        &self.strings[self.idx(id)]
    }

    pub(crate) fn get_arc(&self, id: StrId) -> Arc<str> {
        self.strings[self.idx(id)].clone()
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of pooled payload (for the pooling experiment E4).
    pub fn payload_bytes(&self) -> usize {
        self.payload
    }

    /// Drop every pooled string and advance the id watermark: ids
    /// issued before the call become invalid, and resolving one panics
    /// instead of silently aliasing a newer string. Streaming
    /// tokenizers call this between tokens — their consumers resolve
    /// ids before pulling the next token — so that pooled memory stays
    /// O(working window) on unbounded documents rather than O(every
    /// unique string seen).
    pub(crate) fn recycle(&mut self) {
        self.base = self
            .base
            .checked_add(self.strings.len() as u32)
            .expect("string pool id space exhausted");
        self.strings.clear();
        self.index.clear();
        self.payload = 0;
    }

    /// Rebuild a pool from its dumped string list (segment load path).
    /// Ids are assigned in order, so a pool dumped via [`StringPool::iter`]
    /// and rebuilt here preserves every `StrId`. Duplicate entries keep
    /// the first id, matching intern semantics.
    pub fn from_strings<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut pool = StringPool::new();
        for s in strings {
            let s = s.as_ref();
            let arc: Arc<str> = Arc::from(s);
            let id = StrId(pool.strings.len() as u32);
            pool.payload += arc.len();
            pool.strings.push(arc.clone());
            pool.index.entry(arc).or_insert(id);
        }
        pool
    }

    pub fn iter(&self) -> impl Iterator<Item = (StrId, &str)> {
        let base = self.base;
        self.strings
            .iter()
            .enumerate()
            .map(move |(i, s)| (StrId(base + i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let mut p = StringPool::new();
        let a = p.intern("hello");
        let b = p.intern("world");
        let c = p.intern("hello");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(a), "hello");
        assert_eq!(p.get(b), "world");
    }

    #[test]
    fn payload_counts_unique_only() {
        let mut p = StringPool::new();
        p.intern("aaaa");
        p.intern("aaaa");
        p.intern("bb");
        assert_eq!(p.payload_bytes(), 6);
    }

    #[test]
    fn recycle_frees_strings_and_invalidates_old_ids() {
        let mut p = StringPool::new();
        let a = p.intern("hello");
        p.intern("world");
        assert_eq!(p.payload_bytes(), 10);

        p.recycle();
        assert_eq!(p.len(), 0);
        assert_eq!(p.payload_bytes(), 0);

        // New ids live above the watermark; the old id is dead, not
        // aliased.
        let b = p.intern("fresh");
        assert_eq!(p.get(b), "fresh");
        assert_ne!(a, b);
        assert!(std::panic::catch_unwind(|| p.get(a)).is_err());
    }

    #[test]
    fn empty_string_is_a_value() {
        let mut p = StringPool::new();
        let e = p.intern("");
        assert_eq!(p.get(e), "");
        assert_eq!(p.len(), 1);
    }
}
