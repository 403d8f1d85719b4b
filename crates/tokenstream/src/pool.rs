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
/// one pool belongs to one `TokenStream` or document under construction.
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
        match self.index.get(s) {
            Some(id) => *id,
            None => self.insert(Arc::from(s)),
        }
    }

    fn insert(&mut self, arc: Arc<str>) -> StrId {
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

    /// Heap bytes the pool holds: each string's `Arc` allocation (two
    /// counts and the payload, 8-aligned), the id table's capacity and,
    /// while the pool still interns, its map.
    pub fn memory_bytes(&self) -> usize {
        let arcs: usize = self.strings.iter().map(|s| (16 + s.len() + 7) & !7).sum();
        let entry = std::mem::size_of::<(Arc<str>, StrId)>() + 1;
        arcs + self.strings.capacity() * std::mem::size_of::<Arc<str>>()
            + self.index.capacity() * entry
    }

    /// Stop interning: drop the map from strings to ids, which only
    /// [`StringPool::intern`] reads, and the id table's growth slack. A
    /// finished document's pool only resolves ids; a later `intern`
    /// would pool a second copy of a string instead of finding the
    /// first.
    pub fn freeze(&mut self) {
        self.index = HashMap::new();
        self.strings.shrink_to_fit();
    }

    /// Rebuild a pool from its dumped string list (segment load path),
    /// frozen ([`StringPool::freeze`]) as the document it came from.
    /// Ids are assigned in order, so a pool dumped via
    /// [`StringPool::iter`] and rebuilt here preserves every `StrId`.
    pub fn from_strings<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let strings: Vec<Arc<str>> = strings.into_iter().map(|s| Arc::from(s.as_ref())).collect();
        StringPool {
            payload: strings.iter().map(|s| s.len()).sum(),
            strings,
            ..StringPool::default()
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = (StrId, &str)> {
        let base = self.base;
        self.strings
            .iter()
            .enumerate()
            .map(move |(i, s)| (StrId(base + i as u32), &**s))
    }
}

/// The strings of the tokens a tokenizer has handed out: one growing
/// buffer and where each string ends in it, so a string costs a copy,
/// never an allocation of its own. Unlike [`StringPool`] it does not
/// look strings up: tokens in flight are read once, not stored.
///
/// The tokenizers recycle it ([`TextWindow::recycle`]) whenever their
/// token queue runs dry, so it holds one event's strings, not every
/// string of the document.
#[derive(Debug, Default)]
pub(crate) struct TextWindow {
    text: String,
    /// `ends[i]` is where string `base + i` ends in `text`; it starts
    /// where the one before it ends.
    ends: Vec<usize>,
    /// Id of the first string in `text`; ids below it were recycled.
    base: u32,
}

impl TextWindow {
    pub(crate) fn push(&mut self, s: &str) -> StrId {
        let id = StrId(
            self.base
                .checked_add(self.ends.len() as u32)
                .expect("string pool id space exhausted"),
        );
        self.text.push_str(s);
        self.ends.push(self.text.len());
        id
    }

    pub(crate) fn get(&self, id: StrId) -> &str {
        let i =
            id.0.checked_sub(self.base)
                .expect("stale StrId: the pooled string was recycled") as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Drop every string, keeping the buffers, and advance the id
    /// watermark: ids issued before the call become invalid, and
    /// resolving one panics instead of silently aliasing a newer string.
    pub(crate) fn recycle(&mut self) {
        self.base = self
            .base
            .checked_add(self.ends.len() as u32)
            .expect("string pool id space exhausted");
        self.text.clear();
        self.ends.clear();
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
    fn a_recycled_window_invalidates_old_ids() {
        let mut w = TextWindow::default();
        let a = w.push("hello");
        let b = w.push("");
        let c = w.push("hello");
        assert_ne!(a, c, "a window does not deduplicate");
        assert_eq!((w.get(a), w.get(b), w.get(c)), ("hello", "", "hello"));

        w.recycle();
        assert!(w.text.is_empty() && w.ends.is_empty());

        // New ids live above the watermark; the old id is dead, not
        // aliased.
        let d = w.push("fresh");
        assert_eq!(w.get(d), "fresh");
        assert!(d.0 > c.0);
        assert!(std::panic::catch_unwind(|| w.get(a)).is_err());
    }

    #[test]
    fn freezing_drops_the_map_and_its_bytes() {
        let mut p = StringPool::new();
        let ids: Vec<StrId> = (0..100).map(|i| p.intern(&format!("s{i}"))).collect();
        let interning = p.memory_bytes();
        // Each string is at least its `Arc` header, its payload and a
        // table slot.
        assert!(interning >= 100 * (16 + 2 + 16) + p.index.capacity());
        p.freeze();
        assert!(p.memory_bytes() < interning);
        assert_eq!(p.index.capacity(), 0);
        assert_eq!(p.get(ids[42]), "s42", "ids still resolve");
        let thawed = StringPool::from_strings(p.iter().map(|(_, s)| s));
        assert_eq!(thawed.index.capacity(), 0, "a rebuilt pool is frozen");
        assert_eq!(thawed.get(ids[99]), "s99");
    }

    #[test]
    fn empty_string_is_a_value() {
        let mut p = StringPool::new();
        let e = p.intern("");
        assert_eq!(p.get(e), "");
        assert_eq!(p.len(), 1);
    }
}
