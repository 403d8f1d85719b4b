//! The streaming matcher: any number of streamable patterns compiled
//! into ONE shared-prefix automaton, run once per document. A single
//! streaming query is the N=1 case; a subscription set is the N-pattern
//! case — the same run either way.
//!
//! # Construction
//!
//! The automaton is a trie over `(descendant, QName)` steps: patterns
//! sharing a step prefix share the trie path (YFilter-style), so
//! matching cost scales with the *distinct structure* of the
//! pattern set, not its cardinality — 256 subscriptions over
//! common `//a/b/...` stems cost barely more than one.
//!
//! # Execution
//!
//! An NFA state-set run over the token stream. Each open element carries
//! a set of states; a state is a trie node in one of two modes:
//!
//! - **full** (`node << 1`): the node's path just matched ending at this
//!   element. Child and descendant out-edges both apply below it.
//! - **residual** (`node << 1 | 1`): the node matched at some ancestor
//!   and survives only because it has descendant out-edges; child edges
//!   do NOT apply (they are anchored to the element that completed the
//!   prefix). This distinction is what makes mixed child/descendant
//!   fan-out correct — a plain self-loop over the trie node would let
//!   child edges fire at arbitrary depth.
//!
//! A pattern accepts when its trie leaf is entered in full mode. The run
//! emits **every** match, nested ones included, in document order —
//! exactly the node set materialized evaluation returns, so one pass
//! substitutes for N independent one-shot queries byte-for-byte.
//!
//! When the state set of an element comes up empty and no capture is in
//! flight, the whole subtree is `skip()`ed — the paper's pruning,
//! shared across every pattern at once.
//!
//! # Drivers
//!
//! XML text, whole or in chunks, goes through [`StreamingPass`]: one
//! [`Tokenizer`], dead subtrees absorbed token by token, and optionally
//! a document built from the same tokens. [`run_document`] over
//! materialized tokens is the one place a skip is a real, O(1)
//! `skip_subtree`. Both give identical [`CombinedOutcome`]s.

use crate::stream_path::{StreamPattern, StreamStats};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex, Weak};
use xqr_parallel::lock_recover;
use xqr_store::{Document, DocumentBuilder};
use xqr_tokenstream::{Token, TokenIterator, TokenResolve, Tokenizer};
use xqr_xdm::{Error, ErrorCode, NameId, NamePool, QName, QueryGuard, Result};
use xqr_xmlparse::{TreeWriter, WriterOptions, XmlWriter};

/// Index of a pattern in the slice the automaton was built from.
pub(crate) type PatternId = u32;

#[derive(Debug, Default)]
struct Node {
    /// Out-edges taken only from an element that completed this node's
    /// path (full mode). `None` = wildcard.
    child_edges: Vec<(Option<QName>, u32)>,
    /// Out-edges applicable at any depth below a completion.
    desc_edges: Vec<(Option<QName>, u32)>,
    /// Patterns whose full path ends here.
    accepts: Vec<PatternId>,
}

/// One node's out-edges of one kind, keyed by name id in one pool.
#[derive(Debug, Default)]
struct Edges {
    /// Named edges, sorted by id; a trie node has one edge per name.
    named: Vec<(NameId, u32)>,
    /// The wildcard edge.
    any: Option<u32>,
}

impl Edges {
    /// Key `edges` by id in `names`. A step name the pool does not hold
    /// yet gets no edge (no token can carry it) and sets `missing`.
    /// Names are looked up, not interned: the pool spells a name with
    /// the prefix it first met it under, and that must stay the
    /// document's, not the subscription's.
    fn resolve(edges: &[(Option<QName>, u32)], names: &NamePool, missing: &mut bool) -> Edges {
        let mut out = Edges::default();
        for (name, t) in edges {
            match name {
                Some(q) => match names.get(q) {
                    Some(id) => out.named.push((id, *t)),
                    None => *missing = true,
                },
                None => out.any = Some(*t),
            }
        }
        out.named.sort_unstable();
        out
    }

    /// The targets of the edges an element named `name` takes.
    fn targets(&self, name: NameId) -> impl Iterator<Item = u32> + '_ {
        let named = self
            .named
            .binary_search_by_key(&name, |&(n, _)| n)
            .ok()
            .map(|i| self.named[i].1);
        named.into_iter().chain(self.any)
    }
}

/// The trie's edges matched by [`NameId`]: a start tag's name is looked
/// up by id, not compared as a `QName` against every edge.
#[derive(Debug)]
struct EdgeTable {
    /// `(child, descendant)` edges per trie node.
    nodes: Vec<(Edges, Edges)>,
    /// When some step name was not in the pool: the pool's length then.
    /// A token named by an id at or above it carries a name interned
    /// since, which may be that step's, so it refreshes the table.
    stale_from: Option<u32>,
}

impl EdgeTable {
    fn is_stale_for(&self, name: NameId) -> bool {
        self.stale_from.is_some_and(|len| name.0 >= len)
    }
}

/// The shared-prefix trie/NFA over a set of streamable patterns.
#[derive(Debug)]
pub struct CombinedAutomaton {
    nodes: Vec<Node>,
    patterns: usize,
    /// The edge table resolved against the pool the last run's tokens
    /// came from. The `Weak` keeps that pool's allocation from being
    /// reused, so an equal address is the same pool.
    table: Mutex<Option<(Weak<NamePool>, Arc<EdgeTable>)>>,
}

impl CombinedAutomaton {
    /// Build the trie; patterns keep their slice index as `PatternId`.
    pub fn build(patterns: &[StreamPattern]) -> CombinedAutomaton {
        let mut nodes = vec![Node::default()];
        for (pid, pat) in patterns.iter().enumerate() {
            let mut cur = 0usize;
            for step in &pat.steps {
                let found = {
                    let list = if step.descendant {
                        &nodes[cur].desc_edges
                    } else {
                        &nodes[cur].child_edges
                    };
                    list.iter().find(|(n, _)| *n == step.name).map(|&(_, t)| t)
                };
                cur = match found {
                    Some(t) => t as usize,
                    None => {
                        let t = nodes.len();
                        nodes.push(Node::default());
                        let list = if step.descendant {
                            &mut nodes[cur].desc_edges
                        } else {
                            &mut nodes[cur].child_edges
                        };
                        list.push((step.name.clone(), t as u32));
                        t
                    }
                };
            }
            nodes[cur].accepts.push(pid as PatternId);
        }
        CombinedAutomaton {
            nodes,
            patterns: patterns.len(),
            table: Mutex::new(None),
        }
    }

    /// The edge table for tokens named in `names`: the cached one if it
    /// was resolved against that pool and the pool has learnt no name
    /// it lacked since, else a new one, which replaces it.
    fn edges_for(&self, names: &Arc<NamePool>) -> Arc<EdgeTable> {
        let mut slot = lock_recover(&self.table);
        if let Some((pool, table)) = &*slot {
            if std::ptr::eq(pool.as_ptr(), Arc::as_ptr(names))
                && table
                    .stale_from
                    .is_none_or(|len| len as usize == names.len())
            {
                return Arc::clone(table);
            }
        }
        // Read the length first: a name interned while the table is
        // resolved then still counts as new.
        let len = names.len() as u32;
        let mut missing = false;
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                (
                    Edges::resolve(&n.child_edges, names, &mut missing),
                    Edges::resolve(&n.desc_edges, names, &mut missing),
                )
            })
            .collect();
        let table = Arc::new(EdgeTable {
            nodes,
            stale_from: missing.then_some(len),
        });
        *slot = Some((Arc::downgrade(names), Arc::clone(&table)));
        table
    }

    #[cfg(test)]
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn pattern_count(&self) -> usize {
        self.patterns
    }

    /// One NFA step: from the parent element's state set and a child
    /// element's name, compute the child's state set and the patterns
    /// accepting at it. `out`/`accepted` are scratch, cleared here.
    // `push` is generic, so it is instantiated in the caller's crate;
    // without the hint this per-element call would not inline there.
    #[inline]
    fn advance(
        &self,
        edges: &EdgeTable,
        parent: &[u32],
        name: NameId,
        out: &mut Vec<u32>,
        accepted: &mut Vec<PatternId>,
    ) {
        out.clear();
        accepted.clear();
        // Enter trie node `t` in full mode: collect its accepts, and keep
        // it live only if it has out-edges — an accept-only leaf
        // contributes nothing below its element, and leaving it in the
        // set would stop a counting run from skipping the matched
        // subtree.
        // Liveness is the trie's: a node whose edges' names the pool
        // does not hold yet still has them.
        let mut enter = |t: u32, out: &mut Vec<u32>| {
            let node = &self.nodes[t as usize];
            accepted.extend_from_slice(&node.accepts);
            if !(node.child_edges.is_empty() && node.desc_edges.is_empty()) {
                out.push(t << 1);
            }
        };
        for &s in parent {
            let (child, desc) = &edges.nodes[(s >> 1) as usize];
            let residual = s & 1 == 1;
            if !residual {
                for t in child.targets(name) {
                    enter(t, out);
                }
            }
            for t in desc.targets(name) {
                enter(t, out);
            }
            if !self.nodes[(s >> 1) as usize].desc_edges.is_empty() {
                // Survive below in residual mode: descendant edges stay
                // live at any depth, child edges are spent.
                out.push(s | 1);
            }
        }
        out.sort_unstable();
        out.dedup();
        accepted.sort_unstable();
        accepted.dedup();
    }
}

/// Per-pattern results of one document pass: the serialized matches,
/// concatenated in document order, or the error (budget trip,
/// typically) that stopped collection for that pattern alone.
#[derive(Debug)]
pub struct CombinedOutcome {
    pub per_pattern: Vec<Result<String>>,
    pub stats: StreamStats,
}

/// One pattern's matches so far, in document order of their start tags.
#[derive(Debug, Default)]
struct Matches {
    /// The completed matches no still-open match precedes, concatenated:
    /// one buffer per pattern, not a `String` per match.
    ready: String,
    /// The length of each match in `ready`, in order (four bytes a
    /// match: a whole document's matches wait here when nothing takes
    /// them before the end).
    lens: Vec<u32>,
    /// Slots reserved at capture open and not yet in `ready`;
    /// `waiting[0]` is slot `moved`. A nested match closes before its
    /// ancestor and waits here, as its range of `parked`, until every
    /// slot before it is filled.
    waiting: VecDeque<Option<Range<usize>>>,
    /// The waiting matches' bytes, emptied whenever `waiting` is: that
    /// is, when this pattern's outermost open match closes.
    parked: String,
    moved: usize,
}

impl Matches {
    fn reserve(&mut self) -> usize {
        self.waiting.push_back(None);
        self.moved + self.waiting.len() - 1
    }

    /// Fill `slot` with its serialized match. A match too long for its
    /// recorded length fails the pattern, as a budget trip does.
    fn fill(&mut self, slot: usize, out: &str) -> Result<()> {
        u32::try_from(out.len())
            .map_err(|_| Error::new(ErrorCode::Limit, "a streamed match over 4 GiB"))?;
        let i = slot - self.moved;
        if i > 0 {
            let start = self.parked.len();
            self.parked.push_str(out);
            self.waiting[i] = Some(start..self.parked.len());
            return Ok(());
        }
        self.waiting.pop_front();
        self.append(out.len());
        self.ready.push_str(out);
        while let Some(Some(_)) = self.waiting.front() {
            let m = self.waiting.pop_front().flatten().expect("checked above");
            self.append(m.len());
            self.ready.push_str(&self.parked[m]);
        }
        if self.waiting.is_empty() {
            self.parked.clear();
        }
        Ok(())
    }

    /// Record a match of `len` bytes about to be appended to `ready`.
    fn append(&mut self, len: usize) {
        self.moved += 1;
        self.lens
            .push(u32::try_from(len).expect("checked when filled"));
    }

    fn take(&mut self) -> Vec<String> {
        let mut start = 0;
        let out = self
            .lens
            .drain(..)
            .map(|len| {
                let end = start + len as usize;
                let m = self.ready[start..end].to_string();
                start = end;
                m
            })
            .collect();
        self.ready.clear();
        out
    }
}

/// An in-flight capture: one matched element being serialized for one or
/// more accepting patterns. Its serialization is the run's writer from
/// `start` on: the writer has no indentation and no namespace fixup, so
/// a nested element's bytes are exactly those its own writer would
/// produce.
struct Capture {
    /// Open-element depth of the captured element (captures form a
    /// stack: strictly increasing depth).
    depth: usize,
    /// Where the element's start tag begins in the run's writer.
    start: usize,
    /// Its recipients are the run's `recipients[first..]`, up to the
    /// next capture's `first`.
    first: usize,
}

/// What the driver should do after a pushed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushAction {
    /// Keep feeding tokens.
    Continue,
    /// The element just opened cannot contribute to any pattern:
    /// [`run_document`] skips the subtree on its iterator and reports
    /// the count via [`CombinedRun::note_skipped`]. [`StreamingPass`]
    /// ignores the hint — the run absorbs the dead subtree internally,
    /// at one depth-counter tick per token.
    SkipSubtree,
    /// The outermost open capture just closed: every match collected so
    /// far is complete and [`CombinedRun::take_matches`] will hand it
    /// over — results before the end of input.
    MatchReady,
}

/// The resumable state of one document pass, liftable across chunk
/// boundaries: tokens are pushed in any number of installments, and a
/// skipped subtree and an absorbed one count alike, so every driver
/// gives identical [`CombinedOutcome`]s — results, errors, and stats.
///
/// The automaton is passed to `push` rather than stored so sessions
/// can own the run alongside the `Arc` of the plan that holds the
/// automaton; callers must pass the same automaton every time.
pub struct CombinedRun {
    per_pattern: Vec<Result<Matches>>,
    /// The automaton's edges in the pool of the tokens pushed, fetched
    /// at the first start tag and again at a name newer than them.
    edges: Option<Arc<EdgeTable>>,
    stats: StreamStats,
    // Flat state-set arena: `states[bounds[d]..bounds[d+1]]` is the set
    // for open-element depth d+1; the trailing segment is the top.
    states: Vec<u32>,
    bounds: Vec<u32>,
    scratch: Vec<u32>,
    accepted: Vec<PatternId>,
    // One writer for every open capture: each token inside the
    // outermost one is written once, as it arrives (a start tag stays
    // open while its namespace and attribute tokens follow). It is
    // cleared, keeping its buffer, when the outermost capture closes.
    writer: XmlWriter,
    captures: Vec<Capture>,
    // `(pattern, reserved match slot)` per open capture, outermost
    // first. The slot was reserved at capture open (see [`Matches`]),
    // so nested matches land in document order of their start tags even
    // though inner captures close first.
    recipients: Vec<(PatternId, usize)>,
    // Nonzero while inside a dead subtree the driver didn't skip:
    // open-element depth below the dead element's parent.
    skip_depth: usize,
    // False for a counting run: accepts bump `stats.matches` and nothing
    // is serialized, so matched subtrees can be skipped too.
    capture: bool,
}

impl CombinedRun {
    fn new(automaton: &CombinedAutomaton) -> CombinedRun {
        CombinedRun {
            per_pattern: (0..automaton.pattern_count())
                .map(|_| Ok(Matches::default()))
                .collect(),
            edges: None,
            stats: StreamStats::default(),
            states: vec![0], // trie root, full mode
            bounds: Vec::new(),
            scratch: Vec::new(),
            accepted: Vec::new(),
            writer: XmlWriter::new(WriterOptions::default()),
            captures: Vec::new(),
            recipients: Vec::new(),
            skip_depth: 0,
            capture: true,
        }
    }

    /// Feed one token. `src` resolves its pooled ids (the iterator or
    /// tokenizer that produced it); `charge(pattern, bytes)` is invoked
    /// once per delivered match for per-subscription output budgets —
    /// an error there stops collection for that pattern only, while the
    /// shared pass and every other pattern continue.
    pub(crate) fn push<R, F>(
        &mut self,
        automaton: &CombinedAutomaton,
        tok: &Token,
        src: &R,
        charge: &mut F,
    ) -> PushAction
    where
        R: TokenResolve + ?Sized,
        F: FnMut(PatternId, u64) -> Result<()>,
    {
        if self.skip_depth > 0 {
            // Inside a dead subtree the driver didn't skip: count
            // depth, touch nothing else. Matches `run_document`'s
            // accounting exactly — skip_subtree counts every consumed
            // token including the matching close.
            self.stats.tokens_skipped += 1;
            if tok.opens() {
                self.skip_depth += 1;
            } else if tok.closes() {
                self.skip_depth -= 1;
            }
            return PushAction::Continue;
        }
        self.stats.tokens_seen += 1;
        match tok {
            Token::StartDocument | Token::EndDocument => {}
            Token::StartElement(nid) => {
                if self.edges.as_ref().is_none_or(|e| e.is_stale_for(*nid)) {
                    self.edges = Some(automaton.edges_for(src.names()));
                }
                let edges = self.edges.as_deref().expect("fetched above");
                let start = self.bounds.last().copied().unwrap_or(0) as usize;
                automaton.advance(
                    edges,
                    &self.states[start..],
                    *nid,
                    &mut self.scratch,
                    &mut self.accepted,
                );
                self.bounds.push(self.states.len() as u32);
                self.states.extend_from_slice(&self.scratch);
                let depth = self.bounds.len();
                if !self.capture {
                    self.stats.matches += self.accepted.len() as u64;
                    self.accepted.clear();
                }
                // Open at most one capture per element; all accepting
                // patterns still collecting share it.
                let first = self.recipients.len();
                for &pid in &self.accepted {
                    if let Ok(m) = &mut self.per_pattern[pid as usize] {
                        self.recipients.push((pid, m.reserve()));
                    }
                }
                if self.recipients.len() > first {
                    let start = self.writer.node_start();
                    self.captures.push(Capture {
                        depth,
                        start,
                        first,
                    });
                }
                if !self.captures.is_empty() {
                    self.writer.start_element(src.name(*nid));
                } else if self.scratch.is_empty() {
                    // No live state and nothing being serialized: no
                    // pattern can match anything below — skip the whole
                    // subtree, once, for all of them.
                    self.states
                        .truncate(self.bounds.pop().expect("pushed above") as usize);
                    self.skip_depth = 1;
                    return PushAction::SkipSubtree;
                }
            }
            // Namespace and attribute tokens follow their start tag, so an
            // open capture means the tag was just written.
            Token::Attribute(nid, vid) => {
                if !self.captures.is_empty() {
                    self.writer.attribute(src.name(*nid), &src.pooled_str(*vid));
                }
            }
            Token::NamespaceDecl(pid, uid) => {
                if !self.captures.is_empty() {
                    self.writer
                        .namespace(&src.pooled_str(*pid), &src.pooled_str(*uid));
                }
            }
            Token::Text(sid) => {
                if !self.captures.is_empty() {
                    self.writer.text(&src.pooled_str(*sid));
                }
            }
            Token::Comment(sid) => {
                if !self.captures.is_empty() {
                    self.writer.comment(&src.pooled_str(*sid));
                }
            }
            Token::ProcessingInstruction(nid, did) => {
                if !self.captures.is_empty() {
                    self.writer
                        .pi(src.name(*nid).local_name(), &src.pooled_str(*did));
                }
            }
            Token::EndElement => {
                if !self.captures.is_empty() {
                    self.writer.end_element();
                }
                let depth = self.bounds.len();
                if let Some(start) = self.bounds.pop() {
                    self.states.truncate(start as usize);
                }
                if self.captures.last().is_some_and(|c| c.depth == depth) {
                    let cap = self.captures.pop().expect("checked above");
                    let out = &self.writer.as_str()[cap.start..];
                    for &(pid, slot) in &self.recipients[cap.first..] {
                        // A pattern that already failed (budget tripped
                        // on an earlier, possibly nested, match) stays
                        // failed; skip it.
                        if let Ok(m) = &mut self.per_pattern[pid as usize] {
                            match charge(pid, out.len() as u64).and_then(|()| m.fill(slot, out)) {
                                Ok(()) => self.stats.matches += 1,
                                Err(e) => self.per_pattern[pid as usize] = Err(e),
                            }
                        }
                    }
                    self.recipients.truncate(cap.first);
                    if self.captures.is_empty() {
                        self.writer.clear();
                        return PushAction::MatchReady;
                    }
                }
            }
        }
        PushAction::Continue
    }

    /// Hand over `pattern`'s matches completed so far, in document
    /// order, or the error that stopped its collection. A match waits
    /// while any capture opened before it is still open — an
    /// earlier-closing nested match must not overtake its ancestor.
    pub fn take_matches(&mut self, pattern: PatternId) -> Result<Vec<String>> {
        match &mut self.per_pattern[pattern as usize] {
            Ok(m) => Ok(m.take()),
            Err(e) => Err(e.clone()),
        }
    }

    /// [`run_document`] skipped the dead subtree itself (in response to
    /// [`PushAction::SkipSubtree`]): record the count and resume normal
    /// matching at the next token.
    pub(crate) fn note_skipped(&mut self, tokens: usize) {
        self.stats.tokens_skipped += tokens as u64;
        self.skip_depth = 0;
    }

    /// Live instrumentation — readable mid-stream (matches so far,
    /// tokens seen/skipped), before `CombinedRun::finish`.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// End of the token stream: yield the per-pattern outcomes.
    pub(crate) fn finish(self) -> CombinedOutcome {
        CombinedOutcome {
            per_pattern: self
                .per_pattern
                .into_iter()
                .map(|m| {
                    m.map(|mut m| {
                        m.ready.shrink_to_fit();
                        m.ready
                    })
                })
                .collect(),
            stats: self.stats,
        }
    }
}

/// Run one whole document, materialized as a [`TokenIterator`], through
/// the automaton and collect every pattern's matches. The one driver
/// that skips a dead subtree, with the iterator's own `skip_subtree`:
/// only over materialized tokens is a skip O(1). XML
/// text goes through [`StreamingPass`]. A top-level error means the
/// document itself could not be read: no per-pattern results exist in
/// that case.
pub fn run_document<I, F>(
    automaton: &CombinedAutomaton,
    it: &mut I,
    mut charge: F,
) -> Result<CombinedOutcome>
where
    I: TokenIterator,
    F: FnMut(PatternId, u64) -> Result<()>,
{
    let mut run = CombinedRun::new(automaton);
    while let Some(tok) = it.next_token()? {
        if run.push(automaton, &tok, it, &mut charge) == PushAction::SkipSubtree {
            let skipped = it.skip_subtree()?;
            run.note_skipped(skipped);
        }
    }
    Ok(run.finish())
}

/// The driver over XML text: a [`Tokenizer`], over a whole borrowed
/// string or byte chunks fed as they arrive, each token pushed through
/// the run as it completes. A whole document is a one-chunk pass lexed
/// in place. Memory is bounded by the largest single syntactic unit plus
/// the matches not yet taken. Skip hints are ignored: a skip over a live
/// parse lexes every skipped token anyway, so the run absorbs a dead
/// subtree itself, with the stats a skip gives. Given a builder
/// ([`StreamingPass::building`]), each token also goes to it: the
/// document is lexed once whatever needs it.
pub struct StreamingPass<'a> {
    tokenizer: Tokenizer<'a>,
    run: CombinedRun,
    guards: Vec<QueryGuard>,
    doc: Option<DocumentBuilder>,
}

impl<'a> StreamingPass<'a> {
    /// The tokenizer's own guard, if any, bounds the shared work
    /// (tokens, depth, deadline); `guards[p]` is charged the output
    /// bytes of pattern `p`'s matches, so a budget trip degrades that
    /// pattern alone.
    pub fn new(
        automaton: &CombinedAutomaton,
        tokenizer: Tokenizer<'a>,
        guards: Vec<QueryGuard>,
    ) -> StreamingPass<'a> {
        StreamingPass {
            tokenizer,
            run: CombinedRun::new(automaton),
            guards,
            doc: None,
        }
    }

    /// Also build the document from the pass's tokens; `finish` hands
    /// it over.
    pub fn building(mut self, doc: DocumentBuilder) -> StreamingPass<'a> {
        self.doc = Some(doc);
        self
    }

    /// Only count: every accept bumps `stats.matches`, no match is
    /// serialized or charged, and a matched subtree is dead like any
    /// other — `count(//path)` in pure streaming mode.
    pub fn counting(mut self) -> StreamingPass<'a> {
        self.run.capture = false;
        self
    }

    /// End of input: drain the tokenizer, calling `on_ready` each time
    /// the matches collected so far are complete (so a whole document's
    /// first match is out before its end is read), and yield the
    /// per-pattern outcomes, and the document when building one. An
    /// error means the document could not be read or `on_ready` refused
    /// to go on.
    pub fn finish<G>(
        mut self,
        automaton: &CombinedAutomaton,
        mut on_ready: G,
    ) -> Result<(CombinedOutcome, Option<Arc<Document>>)>
    where
        G: FnMut(&mut CombinedRun) -> Result<()>,
    {
        self.tokenizer.finish()?;
        self.drain(automaton, &mut on_ready)?;
        // The run's and the lexer's buffers go before the document is
        // finished, so they add nothing to its peak.
        let outcome = self.run.finish();
        drop(self.tokenizer);
        let doc = self.doc.map(DocumentBuilder::finish).transpose()?;
        Ok((outcome, doc))
    }

    fn drain<G>(&mut self, automaton: &CombinedAutomaton, on_ready: &mut G) -> Result<()>
    where
        G: FnMut(&mut CombinedRun) -> Result<()>,
    {
        while let Some(tok) = self.tokenizer.poll_token()? {
            let guards = &self.guards;
            let action = self
                .run
                .push(automaton, &tok, &self.tokenizer, &mut |pid, bytes| {
                    guards[pid as usize].note_output_bytes(bytes)
                });
            if let Some(doc) = &mut self.doc {
                doc.push_token(tok, &self.tokenizer);
            }
            if action == PushAction::MatchReady {
                on_ready(&mut self.run)?;
            }
        }
        Ok(())
    }

    /// Bytes parked in the lexer awaiting a complete syntactic unit.
    pub fn buffered_bytes(&self) -> usize {
        self.tokenizer.buffered_bytes()
    }

    /// Live instrumentation: matches so far, tokens seen/skipped.
    pub fn stats(&self) -> &StreamStats {
        self.run.stats()
    }

    /// See [`CombinedRun::take_matches`].
    pub fn take_matches(&mut self, pattern: PatternId) -> Result<Vec<String>> {
        self.run.take_matches(pattern)
    }
}

impl StreamingPass<'static> {
    /// Feed one chunk of an incremental pass; the run advances by
    /// however many tokens completed.
    pub fn feed(&mut self, automaton: &CombinedAutomaton, chunk: &[u8]) -> Result<()> {
        self.tokenizer.feed(chunk)?;
        self.drain(automaton, &mut |_| Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_compiler::{compile, CompileOptions};
    use xqr_tokenstream::TokenStream;
    use xqr_xdm::Limits;

    fn pat(query: &str) -> StreamPattern {
        let q = compile(query, &CompileOptions::default()).expect("compiles");
        StreamPattern::extract(&q.module.body).expect("streamable")
    }

    /// What one pass gave: each pattern's matches one by one (or its
    /// error), the stats, and the document when it built one.
    type Passed = (Vec<Result<Vec<String>>>, StreamStats, Option<Arc<Document>>);

    /// One pass over `xml`: whole and borrowed (`chunk` = `None`) or fed
    /// in chunks of `chunk` bytes, taking the matches whenever they are
    /// ready. `guards[p]` is charged pattern `p`'s output.
    fn pass(
        a: &CombinedAutomaton,
        xml: &str,
        chunk: Option<usize>,
        build: bool,
        counting: bool,
        guards: Vec<QueryGuard>,
    ) -> Passed {
        let names = Arc::new(NamePool::new());
        let mut got = vec![Vec::new(); a.pattern_count()];
        let mut take = |run: &mut CombinedRun| {
            for (p, got) in got.iter_mut().enumerate() {
                if let Ok(ms) = run.take_matches(p as PatternId) {
                    got.extend(ms);
                }
            }
            Ok(())
        };
        let builder = build.then(|| DocumentBuilder::new(names.clone()));
        fn shape<'a>(
            mut pass: StreamingPass<'a>,
            builder: Option<DocumentBuilder>,
            counting: bool,
        ) -> StreamingPass<'a> {
            if let Some(b) = builder {
                pass = pass.building(b);
            }
            if counting {
                pass = pass.counting();
            }
            pass
        }
        let (out, doc) = match chunk {
            None => {
                let tokenizer = Tokenizer::new(xml, names.clone());
                let pass = StreamingPass::new(a, tokenizer, guards);
                shape(pass, builder, counting).finish(a, &mut take)
            }
            Some(n) => {
                let tokenizer = Tokenizer::incremental(names.clone());
                let pass = StreamingPass::new(a, tokenizer, guards);
                let mut pass = shape(pass, builder, counting);
                for c in xml.as_bytes().chunks(n) {
                    pass.feed(a, c).expect("document reads");
                    take(&mut pass.run).unwrap();
                }
                pass.finish(a, &mut take)
            }
        }
        .expect("document reads");
        let per_pattern = out
            .per_pattern
            .into_iter()
            .zip(got)
            .map(|(rest, got)| {
                // Every match was ready, and taken, before the end.
                assert_eq!(rest?, "");
                Ok(got)
            })
            .collect();
        (per_pattern, out.stats, doc)
    }

    /// Every way to run the pass — whole, 1-byte and 4 KiB chunks, each
    /// with and without a builder — must give what `run_document` gives
    /// over materialized tokens, skipping for real: the same matches
    /// and stats. A built document must equal a plain parse.
    fn run_guarded(
        patterns: &[&str],
        xml: &str,
        guards: impl Fn() -> Vec<QueryGuard>,
    ) -> (Vec<Result<Vec<String>>>, StreamStats) {
        let pats: Vec<StreamPattern> = patterns.iter().map(|q| pat(q)).collect();
        let a = CombinedAutomaton::build(&pats);
        let names = Arc::new(NamePool::new());
        let stream = TokenStream::from_xml(xml, names.clone()).unwrap();
        let charges = guards();
        let want = run_document(&a, &mut stream.iter(), |pid, bytes| {
            charges[pid as usize].note_output_bytes(bytes)
        })
        .unwrap();
        let parsed = Document::parse(xml, names).unwrap();
        let mut first = None;
        for chunk in [None, Some(1), Some(4096)] {
            for build in [false, true] {
                let how = format!("chunk {chunk:?}, build {build}: {xml}");
                let (got, stats, doc) = pass(&a, xml, chunk, build, false, guards());
                let concat: Vec<Result<String>> =
                    got.iter().map(|m| m.clone().map(|m| m.concat())).collect();
                assert_eq!(concat, want.per_pattern, "{how}");
                assert_eq!(stats, want.stats, "{how}");
                if let Some(doc) = doc {
                    assert_eq!(
                        doc.serialize_node(doc.root()),
                        parsed.serialize_node(parsed.root()),
                        "{how}"
                    );
                    assert_eq!(doc.len(), parsed.len(), "{how}");
                }
                // Match by match, not just joined: a mode that split or
                // merged matches must not pass.
                if let Some((g, _)) = &first {
                    assert_eq!(&got, g, "{how}");
                }
                first.get_or_insert((got, stats));
            }
        }
        first.expect("ran")
    }

    fn run_all(patterns: &[&str], xml: &str) -> (Vec<Result<Vec<String>>>, StreamStats) {
        run_guarded(patterns, xml, || {
            vec![QueryGuard::unlimited(); patterns.len()]
        })
    }

    fn oks(r: &[Result<Vec<String>>]) -> Vec<Vec<String>> {
        r.iter().map(|x| x.as_ref().unwrap().clone()).collect()
    }

    /// The N=1 case: one pattern's matches and the pass's stats.
    fn run_one(query: &str, xml: &str) -> (Vec<String>, StreamStats) {
        let (mut r, stats) = run_all(&[query], xml);
        (r.remove(0).unwrap(), stats)
    }

    /// The N=1 counting pass, the same in every mode.
    fn count_one(query: &str, xml: &str) -> StreamStats {
        let a = CombinedAutomaton::build(&[pat(query)]);
        let unlimited = || vec![QueryGuard::unlimited()];
        let stats = pass(&a, xml, None, false, true, unlimited()).1;
        for chunk in [None, Some(1), Some(4096)] {
            for build in [false, true] {
                let (_, got, _) = pass(&a, xml, chunk, build, true, unlimited());
                assert_eq!(got, stats, "chunk {chunk:?}, build {build}: {xml}");
            }
        }
        stats
    }

    #[test]
    fn single_pattern_child_descendant_and_mixed_paths() {
        let (out, _) = run_one("/a/b", "<a><b>1</b><c><b>no</b></c><b>2</b></a>");
        assert_eq!(out, vec!["<b>1</b>", "<b>2</b>"]);
        let (out, _) = run_one("//b", "<a><b>1</b><c><b x=\"y\">2</b></c></a>");
        assert_eq!(out, vec!["<b>1</b>", "<b x=\"y\">2</b>"]);
        let xml = "<bib><group><book><title>T1</title></book></group><book><title>T2</title></book></bib>";
        let (out, _) = run_one("/bib//book/title", xml);
        assert_eq!(out, vec!["<title>T1</title>", "<title>T2</title>"]);
        // `/a/descendant::*/b` needs an element strictly between a and b.
        let (out, _) = run_one("/a/descendant::*/b", "<a><b>shallow</b></a>");
        assert_eq!(out, Vec::<String>::new());
        let (out, _) = run_one("/a/descendant::*/b", "<a><z><b>deep</b></z></a>");
        assert_eq!(out, vec!["<b>deep</b>"]);
        let (out, _) = run_one("/a/*", "<a><b>1</b><c>2</c></a>");
        assert_eq!(out, vec!["<b>1</b>", "<c>2</c>"]);
    }

    #[test]
    fn recursive_descendant_chains_emit_every_match() {
        let (out, _) = run_one("//a//a", "<a><a><a/></a></a>");
        assert_eq!(out, vec!["<a><a/></a>", "<a/>"]);
    }

    #[test]
    fn skip_avoids_unmatchable_subtrees() {
        // Pattern /a/b cannot match inside <z>…</z>: the run must skip
        // the whole subtree.
        let mut xml = String::from("<a><z>");
        for i in 0..1000 {
            xml.push_str(&format!("<junk>{i}</junk>"));
        }
        xml.push_str("</z><b>hit</b></a>");
        let (out, stats) = run_one("/a/b", &xml);
        assert_eq!(out, vec!["<b>hit</b>"]);
        assert!(
            stats.tokens_skipped > 2500,
            "expected bulk skipping, got {stats:?}"
        );
        // Descendant steps keep every subtree live.
        let (out, stats) = run_one("//b", "<a><z><b>deep</b></z></a>");
        assert_eq!(out, vec!["<b>deep</b>"]);
        assert_eq!(stats.tokens_skipped, 0);
    }

    #[test]
    fn counting_run_counts_every_match_and_skips_matched_subtrees() {
        let stats = count_one("/a/b", "<a><b>1<x/></b><z><b>not-child</b></z><b>2</b></a>");
        assert_eq!(stats.matches, 2);
        // Both b subtrees and the z subtree are skipped: only <a>, the
        // three child start tags, </a> and the document brackets are seen.
        assert_eq!(stats.tokens_seen, 7, "{stats:?}");
        assert!(stats.tokens_skipped > 0);
        // Nested matches all count, as materialized count() does.
        assert_eq!(count_one("//b", "<a><b><b/></b><b/></a>").matches, 3);
        assert_eq!(
            count_one("//d", "<a><d>1<d>2</d></d><d>3</d></a>").matches,
            3
        );
    }

    /// A pass fed in chunks.
    fn chunked(a: &CombinedAutomaton) -> StreamingPass<'static> {
        let tokenizer = Tokenizer::incremental(Arc::new(NamePool::new()));
        StreamingPass::new(a, tokenizer, vec![QueryGuard::unlimited()])
    }

    #[test]
    fn first_match_is_ready_before_the_document_ends() {
        let a = CombinedAutomaton::build(&[pat("/a/b")]);
        let mut pass = chunked(&a);
        pass.feed(&a, b"<a><b>first</b><b>sec").unwrap();
        assert_eq!(pass.take_matches(0).unwrap(), vec!["<b>first</b>"]);
        // The open second match is not ready; taking again is a no-op.
        assert_eq!(pass.take_matches(0).unwrap(), Vec::<String>::new());
        pass.feed(&a, b"ond</b></a>").unwrap();
        assert_eq!(pass.take_matches(0).unwrap(), vec!["<b>second</b>"]);
        assert_eq!(pass.finish(&a, |_| Ok(())).unwrap().0.stats.matches, 2);

        // Over a whole string, `finish` hands the first match out while
        // the rest is still unread.
        let mut xml = String::from("<a><b>first</b>");
        xml.extend((0..1000).map(|i| format!("<b>{i}</b>")));
        xml.push_str("</a>");
        let names = Arc::new(NamePool::new());
        let tokenizer = Tokenizer::new(&xml, names);
        let pass = StreamingPass::new(&a, tokenizer, vec![QueryGuard::unlimited()]);
        let mut first = None;
        pass.finish(&a, |run| {
            let seen = run.stats().tokens_seen;
            let ms = run.take_matches(0)?;
            first.get_or_insert((ms, seen));
            Ok(())
        })
        .unwrap();
        let (ms, seen) = first.expect("a match");
        assert_eq!(ms, vec!["<b>first</b>"]);
        assert!(seen < 10, "{seen} tokens seen at the first match");

        // A closed nested match waits for its still-open ancestor.
        let a = CombinedAutomaton::build(&[pat("//b")]);
        let mut pass = chunked(&a);
        pass.feed(&a, b"<a><b>outer<b>inner</b>").unwrap();
        assert_eq!(pass.take_matches(0).unwrap(), Vec::<String>::new());
        pass.feed(&a, b"</b><b/>").unwrap();
        assert_eq!(
            pass.take_matches(0).unwrap(),
            vec!["<b>outer<b>inner</b></b>", "<b>inner</b>", "<b/>"]
        );
    }

    #[test]
    fn empty_and_elementless_input_ends_cleanly() {
        // Either a clean end-of-stream or a coded parse error — never a
        // panic, a match, or an internal error.
        let a = CombinedAutomaton::build(&[pat("/a/b")]);
        for xml in ["", "   "] {
            let names = Arc::new(NamePool::new());
            let whole = StreamingPass::new(
                &a,
                Tokenizer::new(xml, names),
                vec![QueryGuard::unlimited()],
            );
            let mut fed = chunked(&a);
            let fed = fed
                .feed(&a, xml.as_bytes())
                .and_then(|()| fed.finish(&a, |_| Ok(())));
            for ended in [whole.finish(&a, |_| Ok(())), fed] {
                match ended {
                    Ok((out, _)) => assert_eq!(out.per_pattern[0].as_deref(), Ok("")),
                    Err(e) => assert_ne!(e.code, xqr_xdm::ErrorCode::Internal, "{xml:?}: {e}"),
                }
            }
        }
    }

    #[test]
    fn forty_step_child_path_streams() {
        // The trie has no step cap (the former matcher's u32 prefix mask
        // stopped at 31).
        let depth = 40;
        let query: String = (0..depth).map(|i| format!("/e{i}")).collect();
        assert_eq!(pat(&query).steps.len(), depth);
        let mut xml: String = (0..depth).map(|i| format!("<e{i}>")).collect();
        xml.push('x');
        xml.extend((0..depth).rev().map(|i| format!("</e{i}>")));
        let (out, _) = run_one(&query, &xml);
        assert_eq!(out, vec!["<e39>x</e39>"]);
    }

    #[test]
    fn shared_prefix_patterns_share_trie_nodes() {
        let pats: Vec<StreamPattern> = ["/a/b/c", "/a/b/d", "/a/b/e"]
            .iter()
            .map(|q| pat(q))
            .collect();
        let a = CombinedAutomaton::build(&pats);
        // root + a + b + {c,d,e}: 6 nodes, not 10.
        assert_eq!(a.node_count(), 6);
        assert_eq!(a.pattern_count(), 3);
    }

    #[test]
    fn each_pattern_gets_only_its_matches() {
        let (r, _) = run_all(
            &["/a/b", "/a/c", "//d"],
            "<a><b>1</b><c>2</c><x><d>3</d></x></a>",
        );
        assert_eq!(
            oks(&r),
            vec![
                vec!["<b>1</b>".to_string()],
                vec!["<c>2</c>".to_string()],
                vec!["<d>3</d>".to_string()],
            ]
        );
    }

    #[test]
    fn emits_nested_matches_in_document_order() {
        // Materialized evaluation of //b returns BOTH b elements, outer
        // first.
        let (r, _) = run_all(&["//b"], "<a><b>outer<b>inner</b></b></a>");
        assert_eq!(
            oks(&r),
            vec![vec![
                "<b>outer<b>inner</b></b>".to_string(),
                "<b>inner</b>".to_string(),
            ]]
        );
    }

    #[test]
    fn mixed_child_and_descendant_edges_stay_anchored() {
        // /a/b (child-child) and //c share the automaton. The child
        // edge for b must NOT fire at depths below a's children.
        let (r, _) = run_all(
            &["/a/b", "//c"],
            "<a><x><b>deep</b><c>yes</c></x><b>hit</b></a>",
        );
        assert_eq!(
            oks(&r),
            vec![
                vec!["<b>hit</b>".to_string()],
                vec!["<c>yes</c>".to_string()],
            ]
        );
    }

    #[test]
    fn skip_fires_only_when_no_pattern_is_live() {
        // /a/b alone would skip <z>: but //d keeps every subtree live.
        let (_, stats) = run_all(&["/a/b", "//d"], "<a><z><junk/><junk/></z><b/></a>");
        assert_eq!(stats.tokens_skipped, 0);
        // With only child patterns, the z subtree is pruned once.
        let (r, stats) = run_all(&["/a/b", "/a/c"], "<a><z><junk/><junk/></z><b/></a>");
        assert!(stats.tokens_skipped > 0, "{stats:?}");
        assert_eq!(
            oks(&r),
            vec![vec!["<b/>".to_string()], Vec::<String>::new()]
        );
    }

    #[test]
    fn same_pattern_registered_twice_matches_twice() {
        let (r, _) = run_all(&["/a/b", "/a/b"], "<a><b>x</b></a>");
        assert_eq!(
            oks(&r),
            vec![vec!["<b>x</b>".to_string()], vec!["<b>x</b>".to_string()]]
        );
    }

    #[test]
    fn budget_trip_degrades_one_pattern_only() {
        // Pattern 1 trips after its first delivered match.
        let (out, _) = run_guarded(
            &["/a/b", "/a/b", "/a/c"],
            "<a><b>1</b><b>2</b><c>3</c></a>",
            || {
                let tight = Limits::unlimited().with_max_output_bytes(8);
                vec![
                    QueryGuard::unlimited(),
                    QueryGuard::new(tight),
                    QueryGuard::unlimited(),
                ]
            },
        );
        assert_eq!(out[0].as_ref().unwrap(), &["<b>1</b>", "<b>2</b>"]);
        assert_eq!(out[1].as_ref().unwrap_err().code, xqr_xdm::ErrorCode::Limit);
        assert_eq!(out[2].as_ref().unwrap(), &["<c>3</c>"]);
    }

    #[test]
    fn attributes_namespaces_and_text_serialize_through_shared_captures() {
        let (r, _) = run_all(&["//b", "/a/b"], r#"<a><b k="v">t<!--c--></b></a>"#);
        let want = vec![r#"<b k="v">t<!--c--></b>"#.to_string()];
        assert_eq!(oks(&r), vec![want.clone(), want]);
    }

    #[test]
    fn empty_pattern_set_consumes_nothing() {
        let (out, stats) = run_all(&[], "<a><b/></a>");
        assert!(out.is_empty());
        // The document element's subtree is skipped wholesale.
        assert!(stats.tokens_skipped > 0);
    }

    /// Skips and absorbed subtrees count alike, whatever the chunking
    /// (`run_all` holds every mode to `run_document`'s stats), and the
    /// run does not care where a chunk ends.
    #[test]
    fn pushed_run_equals_pulled_run_results_and_stats() {
        let patterns = ["/a/b", "/a/c", "//d", "//*"];
        for doc in [
            "<a><b>1</b><c>2</c><x><d>3</d></x></a>",
            "<a><z><junk/><junk deep=\"1\"><q/></junk></z><b/></a>",
            r#"<a><b k="v">t<!--c--></b><?pi data?></a>"#,
            r#"<a xmlns:p="urn:p"><p:b xmlns="urn:d" k="v">t</p:b></a>"#,
            "<root/>",
        ] {
            run_all(&patterns, doc);
        }
        let (_, stats) = run_all(&["/a/b"], "<a><z><j/><j/></z><b/></a>");
        assert!(stats.tokens_skipped > 0);
        let (r, _) = run_all(&["//b", "/a/c"], "<a><b>outer<b>inner</b></b><c>x</c></a>");
        assert_eq!(
            oks(&r),
            vec![
                vec!["<b>outer<b>inner</b></b>", "<b>inner</b>"],
                vec!["<c>x</c>"],
            ]
        );
    }

    #[test]
    fn wildcard_descendant_pattern_accepts_every_element() {
        let (r, _) = run_all(&["//*"], "<a><b/><c><d/></c></a>");
        assert_eq!(
            oks(&r),
            vec![vec![
                "<a><b/><c><d/></c></a>".to_string(),
                "<b/>".to_string(),
                "<c><d/></c>".to_string(),
                "<d/>".to_string(),
            ]]
        );
    }
}
