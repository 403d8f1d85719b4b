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
//! Two, selected by what the caller holds: [`pull`] / [`run_document`]
//! over a [`TokenIterator`] (a whole document in hand; skip hints become
//! real `skip_subtree` calls) and [`StreamingPass`] over a
//! [`PushTokenizer`] (byte chunks arriving; dead subtrees are absorbed
//! token by token). Both produce identical [`CombinedOutcome`]s.

use crate::stream_path::{StreamPattern, StreamStats};
use std::sync::Arc;
use xqr_tokenstream::{PushTokenizer, Token, TokenIterator, TokenResolve};
use xqr_xdm::{NamePool, QName, QueryGuard, Result};
use xqr_xmlparse::{Attribute, NamespaceDecl, WriterOptions, XmlEvent, XmlWriter};

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

/// The shared-prefix trie/NFA over a set of streamable patterns.
#[derive(Debug)]
pub struct CombinedAutomaton {
    nodes: Vec<Node>,
    patterns: usize,
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
        }
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
        parent: &[u32],
        name: &QName,
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
        let mut enter = |t: u32, out: &mut Vec<u32>| {
            let node = &self.nodes[t as usize];
            accepted.extend_from_slice(&node.accepts);
            if !(node.child_edges.is_empty() && node.desc_edges.is_empty()) {
                out.push(t << 1);
            }
        };
        for &s in parent {
            let node = &self.nodes[(s >> 1) as usize];
            let residual = s & 1 == 1;
            if !residual {
                for (n, t) in &node.child_edges {
                    if n.as_ref().is_none_or(|q| q == name) {
                        enter(*t, out);
                    }
                }
            }
            for (n, t) in &node.desc_edges {
                if n.as_ref().is_none_or(|q| q == name) {
                    enter(*t, out);
                }
            }
            if !node.desc_edges.is_empty() {
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

/// Per-pattern results of one document pass: the serialized matches in
/// document order, or the error (budget trip, typically) that stopped
/// collection for that pattern alone.
#[derive(Debug)]
pub struct CombinedOutcome {
    pub per_pattern: Vec<Result<Vec<String>>>,
    pub stats: StreamStats,
}

/// An in-flight capture: one matched element being serialized for one or
/// more accepting patterns.
struct Capture {
    /// Open-element depth of the captured element (captures form a
    /// stack: strictly increasing depth).
    depth: usize,
    writer: XmlWriter,
    /// `(pattern, reserved match slot)` recipients. The slot was
    /// reserved at capture open, so nested matches land in document
    /// order of their start tags even though inner captures close first.
    recipients: Vec<(PatternId, usize)>,
}

/// What the driver should do after a pushed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushAction {
    /// Keep feeding tokens.
    Continue,
    /// The element just opened cannot contribute to any pattern:
    /// a *pull* driver should `skip_subtree()` on its iterator and
    /// report the count via [`CombinedRun::note_skipped`]. A *push*
    /// driver (tokens arrive whether it wants them or not) may ignore
    /// the hint — the run absorbs the dead subtree internally, at one
    /// depth-counter tick per token.
    SkipSubtree,
    /// The outermost open capture just closed: every match collected so
    /// far is complete and [`CombinedRun::take_matches`] will hand it
    /// over — results before the end of input.
    MatchReady,
}

#[inline]
fn flush_pending(
    pending: &mut Option<(QName, Vec<Attribute>, Vec<NamespaceDecl>)>,
    captures: &mut [Capture],
) -> Result<()> {
    if let Some((name, attributes, namespaces)) = pending.take() {
        for c in captures.iter_mut() {
            c.writer.write(&XmlEvent::StartElement {
                name: name.clone(),
                attributes: attributes.clone(),
                namespaces: namespaces.clone(),
                empty: false,
            })?;
        }
    }
    Ok(())
}

/// The resumable state of one document pass, liftable across chunk
/// boundaries.
///
/// A pull driver (whole document in hand) loops `next_token` → `push`
/// and honours `PushAction::SkipSubtree` with a real `skip_subtree`.
/// A push driver (chunked ingestion: tokens appear as network bytes
/// arrive) calls `push` for whatever is available, in any number of
/// installments, and `finish`es when the producer signals end of
/// document. Both drivers produce identical [`CombinedOutcome`]s —
/// results, errors, and stats — which is what makes chunked evaluation
/// byte-equivalent to whole-document evaluation.
///
/// The automaton is passed to `push` rather than stored so sessions
/// can own the run alongside the `Arc` of the plan that holds the
/// automaton; callers must pass the same automaton every time.
pub struct CombinedRun {
    per_pattern: Vec<Result<Vec<String>>>,
    stats: StreamStats,
    // Flat state-set arena: `states[bounds[d]..bounds[d+1]]` is the set
    // for open-element depth d+1; the trailing segment is the top.
    states: Vec<u32>,
    bounds: Vec<u32>,
    scratch: Vec<u32>,
    accepted: Vec<PatternId>,
    captures: Vec<Capture>,
    // Start-tag buffer: attributes/namespace tokens arrive after
    // StartElement; the tag is written to capture writers on the first
    // non-attribute token.
    pending: Option<(QName, Vec<Attribute>, Vec<NamespaceDecl>)>,
    // Nonzero while inside a dead subtree a push driver couldn't skip:
    // open-element depth below the dead element's parent.
    skip_depth: usize,
    // False for a counting run: accepts bump `stats.matches` and nothing
    // is serialized, so matched subtrees can be skipped too.
    capture: bool,
}

impl CombinedRun {
    pub fn new(automaton: &CombinedAutomaton) -> CombinedRun {
        CombinedRun {
            per_pattern: (0..automaton.pattern_count())
                .map(|_| Ok(Vec::new()))
                .collect(),
            stats: StreamStats::default(),
            states: vec![0], // trie root, full mode
            bounds: Vec::new(),
            scratch: Vec::new(),
            accepted: Vec::new(),
            captures: Vec::new(),
            pending: None,
            skip_depth: 0,
            capture: true,
        }
    }

    /// A run that only counts: every accept bumps `stats.matches`, no
    /// match is serialized or charged, and a subtree is skipped whenever
    /// the live state set is empty — `count(//path)` in pure streaming
    /// mode.
    pub fn counting(automaton: &CombinedAutomaton) -> CombinedRun {
        CombinedRun {
            capture: false,
            ..CombinedRun::new(automaton)
        }
    }

    /// Feed one token. `src` resolves its pooled ids (the iterator or
    /// tokenizer that produced it); `charge(pattern, bytes)` is invoked
    /// once per delivered match for per-subscription output budgets —
    /// an error there stops collection for that pattern only, while the
    /// shared pass and every other pattern continue. A returned error
    /// means the pass itself failed (capture serialization).
    pub(crate) fn push<R, F>(
        &mut self,
        automaton: &CombinedAutomaton,
        tok: &Token,
        src: &R,
        charge: &mut F,
    ) -> Result<PushAction>
    where
        R: TokenResolve + ?Sized,
        F: FnMut(PatternId, u64) -> Result<()>,
    {
        if self.skip_depth > 0 {
            // Inside a dead subtree the push driver couldn't skip:
            // count depth, touch nothing else. Matches the pull path's
            // accounting exactly — skip_subtree counts every consumed
            // token including the matching close.
            self.stats.tokens_skipped += 1;
            if tok.opens() {
                self.skip_depth += 1;
            } else if tok.closes() {
                self.skip_depth -= 1;
            }
            return Ok(PushAction::Continue);
        }
        self.stats.tokens_seen += 1;
        match tok {
            Token::StartDocument | Token::EndDocument => {}
            Token::StartElement(nid) => {
                let name = src.name(*nid);
                flush_pending(&mut self.pending, &mut self.captures)?;
                let start = self.bounds.last().copied().unwrap_or(0) as usize;
                automaton.advance(
                    &self.states[start..],
                    &name,
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
                // patterns still collecting share its writer.
                let mut recipients: Vec<(PatternId, usize)> = Vec::new();
                for &pid in &self.accepted {
                    if let Ok(slots) = &mut self.per_pattern[pid as usize] {
                        slots.push(String::new()); // reserve in doc order
                        recipients.push((pid, slots.len() - 1));
                    }
                }
                if !recipients.is_empty() {
                    self.captures.push(Capture {
                        depth,
                        writer: XmlWriter::new(WriterOptions::default()),
                        recipients,
                    });
                }
                if !self.captures.is_empty() {
                    self.pending = Some((name, Vec::new(), Vec::new()));
                } else if self.scratch.is_empty() {
                    // No live state and nothing being serialized: no
                    // pattern can match anything below — skip the whole
                    // subtree, once, for all of them.
                    self.states
                        .truncate(self.bounds.pop().expect("pushed above") as usize);
                    self.skip_depth = 1;
                    return Ok(PushAction::SkipSubtree);
                }
            }
            Token::Attribute(nid, vid) => {
                if let Some((_, attrs, _)) = self.pending.as_mut() {
                    attrs.push(Attribute {
                        name: src.name(*nid),
                        value: src.pooled_str(*vid),
                    });
                }
            }
            Token::NamespaceDecl(pid, uid) => {
                if let Some((_, _, decls)) = self.pending.as_mut() {
                    let prefix = src.pooled_str(*pid);
                    decls.push(NamespaceDecl {
                        prefix: if prefix.is_empty() {
                            None
                        } else {
                            Some(prefix)
                        },
                        uri: src.pooled_str(*uid),
                    });
                }
            }
            Token::Text(sid) => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    let text = src.pooled_str(*sid);
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::Text(text.clone()))?;
                    }
                }
            }
            Token::Comment(sid) => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    let text = src.pooled_str(*sid);
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::Comment(text.clone()))?;
                    }
                }
            }
            Token::ProcessingInstruction(nid, did) => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    let target: std::sync::Arc<str> =
                        std::sync::Arc::from(src.name(*nid).local_name());
                    let data = src.pooled_str(*did);
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::ProcessingInstruction {
                            target: target.clone(),
                            data: data.clone(),
                        })?;
                    }
                }
            }
            Token::EndElement => {
                if !self.captures.is_empty() {
                    flush_pending(&mut self.pending, &mut self.captures)?;
                    for c in self.captures.iter_mut() {
                        c.writer.write(&XmlEvent::EndElement {
                            name: QName::local(""),
                        })?;
                    }
                }
                let depth = self.bounds.len();
                if let Some(start) = self.bounds.pop() {
                    self.states.truncate(start as usize);
                }
                if self.captures.last().is_some_and(|c| c.depth == depth) {
                    let cap = self.captures.pop().expect("checked above");
                    let out = cap.writer.into_string();
                    for (pid, slot) in cap.recipients {
                        // A pattern that already failed (budget tripped
                        // on an earlier, possibly nested, match) stays
                        // failed; skip it.
                        if let Ok(slots) = &mut self.per_pattern[pid as usize] {
                            match charge(pid, out.len() as u64) {
                                Ok(()) => {
                                    self.stats.matches += 1;
                                    slots[slot] = out.clone();
                                }
                                Err(e) => self.per_pattern[pid as usize] = Err(e),
                            }
                        }
                    }
                    if self.captures.is_empty() {
                        return Ok(PushAction::MatchReady);
                    }
                }
            }
        }
        Ok(PushAction::Continue)
    }

    /// Hand over `pattern`'s matches completed so far, in document
    /// order, or the error that stopped its collection. A match waits
    /// while any capture opened before it is still open — an
    /// earlier-closing nested match must not overtake its ancestor.
    pub fn take_matches(&mut self, pattern: PatternId) -> Result<Vec<String>> {
        let slots = match &mut self.per_pattern[pattern as usize] {
            Ok(slots) => slots,
            Err(e) => return Err(e.clone()),
        };
        // Slots are reserved in start-tag order and open captures nest,
        // so everything before the outermost open capture's slot is
        // final.
        let mut open = self
            .captures
            .iter_mut()
            .flat_map(|c| c.recipients.iter_mut())
            .filter(|(pid, _)| *pid == pattern)
            .peekable();
        let ready = open.peek().map_or(slots.len(), |(_, slot)| *slot);
        open.for_each(|(_, slot)| *slot -= ready);
        Ok(slots.drain(..ready).collect())
    }

    /// A pull driver skipped the dead subtree itself (in response to
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
            per_pattern: self.per_pattern,
            stats: self.stats,
        }
    }
}

/// The pull driver over [`CombinedRun`]: feed `run` every token of
/// `it`, honouring skip hints with the iterator's own `skip_subtree`
/// (O(1) on materialized streams) and calling `on_ready` each time the
/// matches collected so far are complete. An error means the document
/// itself could not be read (parse error, token budget) or `on_ready`
/// refused to go on.
pub fn pull<I, F, G>(
    automaton: &CombinedAutomaton,
    run: &mut CombinedRun,
    it: &mut I,
    mut charge: F,
    mut on_ready: G,
) -> Result<()>
where
    I: TokenIterator,
    F: FnMut(PatternId, u64) -> Result<()>,
    G: FnMut(&mut CombinedRun) -> Result<()>,
{
    while let Some(tok) = it.next_token()? {
        match run.push(automaton, &tok, it, &mut charge)? {
            PushAction::Continue => {}
            PushAction::SkipSubtree => {
                let skipped = it.skip_subtree()?;
                run.note_skipped(skipped);
            }
            PushAction::MatchReady => on_ready(run)?,
        }
    }
    Ok(())
}

/// Run one whole document through the automaton and collect every
/// pattern's matches. A top-level error means the document itself could
/// not be read: no per-pattern results exist in that case.
pub fn run_document<I, F>(
    automaton: &CombinedAutomaton,
    it: &mut I,
    charge: F,
) -> Result<CombinedOutcome>
where
    I: TokenIterator,
    F: FnMut(PatternId, u64) -> Result<()>,
{
    let mut run = CombinedRun::new(automaton);
    pull(automaton, &mut run, it, charge, |_| Ok(()))?;
    Ok(run.finish())
}

/// The push driver over [`CombinedRun`]: a [`PushTokenizer`] fed byte
/// chunks split at any boundary, every completed token pushed through
/// the run as it appears. Memory is bounded by the largest single
/// syntactic unit plus the matches not yet taken. Skip hints are
/// ignored — tokens arrive whether wanted or not; the run absorbs dead
/// subtrees internally.
pub struct StreamingPass {
    tokenizer: PushTokenizer,
    run: CombinedRun,
    guards: Vec<QueryGuard>,
}

impl StreamingPass {
    /// `pass_guard` bounds the shared work (tokens, depth, deadline);
    /// `guards[p]` is charged the output bytes of pattern `p`'s matches,
    /// so a budget trip degrades that pattern alone.
    pub fn new(
        automaton: &CombinedAutomaton,
        names: Arc<NamePool>,
        pass_guard: QueryGuard,
        guards: Vec<QueryGuard>,
    ) -> StreamingPass {
        let tokenizer = if pass_guard.is_unlimited() {
            PushTokenizer::new(names)
        } else {
            PushTokenizer::with_guard(names, pass_guard)
        };
        StreamingPass {
            tokenizer,
            run: CombinedRun::new(automaton),
            guards,
        }
    }

    /// Feed one chunk; the run advances by however many tokens completed.
    pub fn feed(&mut self, automaton: &CombinedAutomaton, chunk: &[u8]) -> Result<()> {
        self.tokenizer.feed(chunk)?;
        self.drain(automaton)
    }

    /// End of input: resolve constructs waiting on more bytes and yield
    /// the per-pattern outcomes.
    pub fn finish(mut self, automaton: &CombinedAutomaton) -> Result<CombinedOutcome> {
        self.tokenizer.finish()?;
        self.drain(automaton)?;
        Ok(self.run.finish())
    }

    fn drain(&mut self, automaton: &CombinedAutomaton) -> Result<()> {
        while let Some(tok) = self.tokenizer.poll_token()? {
            let guards = &self.guards;
            self.run
                .push(automaton, &tok, &self.tokenizer, &mut |pid, bytes| {
                    guards[pid as usize].note_output_bytes(bytes)
                })?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use xqr_compiler::{compile, CompileOptions};
    use xqr_tokenstream::ParserTokenIterator;

    fn pat(query: &str) -> StreamPattern {
        let q = compile(query, &CompileOptions::default()).expect("compiles");
        StreamPattern::extract(&q.module.body).expect("streamable")
    }

    fn run_all(patterns: &[&str], xml: &str) -> (Vec<Result<Vec<String>>>, StreamStats) {
        let pats: Vec<StreamPattern> = patterns.iter().map(|q| pat(q)).collect();
        let a = CombinedAutomaton::build(&pats);
        let mut it = ParserTokenIterator::new(xml, Arc::new(NamePool::new()));
        let out = run_document(&a, &mut it, |_, _| Ok(())).expect("document reads");
        (out.per_pattern, out.stats)
    }

    fn oks(r: &[Result<Vec<String>>]) -> Vec<Vec<String>> {
        r.iter().map(|x| x.as_ref().unwrap().clone()).collect()
    }

    /// The N=1 case: one pattern's matches and the pass's stats.
    fn run_one(query: &str, xml: &str) -> (Vec<String>, StreamStats) {
        let (mut r, stats) = run_all(&[query], xml);
        (r.remove(0).unwrap(), stats)
    }

    /// The N=1 counting run.
    fn count_one(query: &str, xml: &str) -> StreamStats {
        let a = CombinedAutomaton::build(&[pat(query)]);
        let mut run = CombinedRun::counting(&a);
        let mut it = ParserTokenIterator::new(xml, Arc::new(NamePool::new()));
        pull(&a, &mut run, &mut it, |_, _| Ok(()), |_| Ok(())).unwrap();
        run.finish().stats
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

    #[test]
    fn first_match_is_ready_before_the_document_ends() {
        let a = CombinedAutomaton::build(&[pat("/a/b")]);
        let mut pass = StreamingPass::new(
            &a,
            Arc::new(NamePool::new()),
            QueryGuard::unlimited(),
            vec![QueryGuard::unlimited()],
        );
        pass.feed(&a, b"<a><b>first</b><b>sec").unwrap();
        assert_eq!(pass.take_matches(0).unwrap(), vec!["<b>first</b>"]);
        // The open second match is not ready; taking again is a no-op.
        assert_eq!(pass.take_matches(0).unwrap(), Vec::<String>::new());
        pass.feed(&a, b"ond</b></a>").unwrap();
        assert_eq!(pass.take_matches(0).unwrap(), vec!["<b>second</b>"]);
        assert_eq!(pass.finish(&a).unwrap().stats.matches, 2);

        // A closed nested match waits for its still-open ancestor.
        let a = CombinedAutomaton::build(&[pat("//b")]);
        let mut pass = StreamingPass::new(
            &a,
            Arc::new(NamePool::new()),
            QueryGuard::unlimited(),
            vec![QueryGuard::unlimited()],
        );
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
        for xml in ["", "   "] {
            let a = CombinedAutomaton::build(&[pat("/a/b")]);
            let mut it = ParserTokenIterator::new(xml, Arc::new(NamePool::new()));
            match run_document(&a, &mut it, |_, _| Ok(())) {
                Ok(out) => assert_eq!(oks(&out.per_pattern), vec![Vec::<String>::new()]),
                Err(e) => assert_ne!(e.code, xqr_xdm::ErrorCode::Internal, "{xml:?}: {e}"),
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
        let pats = vec![pat("/a/b"), pat("/a/b"), pat("/a/c")];
        let a = CombinedAutomaton::build(&pats);
        let mut it =
            ParserTokenIterator::new("<a><b>1</b><b>2</b><c>3</c></a>", Arc::new(NamePool::new()));
        // Pattern 1 trips after its first delivered match.
        let mut p1_bytes = 0u64;
        let out = run_document(&a, &mut it, |pid, bytes| {
            if pid == 1 {
                p1_bytes += bytes;
                if p1_bytes > 8 {
                    return Err(xqr_xdm::Error::new(
                        xqr_xdm::ErrorCode::Limit,
                        "output budget",
                    ));
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(
            out.per_pattern[0].as_ref().unwrap(),
            &vec!["<b>1</b>".to_string(), "<b>2</b>".to_string()]
        );
        assert_eq!(
            out.per_pattern[1].as_ref().unwrap_err().code,
            xqr_xdm::ErrorCode::Limit
        );
        assert_eq!(
            out.per_pattern[2].as_ref().unwrap(),
            &vec!["<c>3</c>".to_string()]
        );
    }

    #[test]
    fn attributes_namespaces_and_text_serialize_through_shared_captures() {
        let (r, _) = run_all(&["//b", "/a/b"], r#"<a><b k="v">t<!--c--></b></a>"#);
        let want = vec![r#"<b k="v">t<!--c--></b>"#.to_string()];
        assert_eq!(oks(&r), vec![want.clone(), want]);
    }

    #[test]
    fn empty_pattern_set_consumes_nothing() {
        let a = CombinedAutomaton::build(&[]);
        let mut it = ParserTokenIterator::new("<a><b/></a>", Arc::new(NamePool::new()));
        let out = run_document(&a, &mut it, |_, _| Ok(())).unwrap();
        assert!(out.per_pattern.is_empty());
        // The document element's subtree is skipped wholesale.
        assert!(out.stats.tokens_skipped > 0);
    }

    /// Drive the run push-style (no skip available, every token pushed,
    /// chunk-agnostic) and compare against the pull driver.
    fn run_pushed(patterns: &[&str], xml: &str) -> (Vec<Result<Vec<String>>>, StreamStats) {
        let pats: Vec<StreamPattern> = patterns.iter().map(|q| pat(q)).collect();
        let a = CombinedAutomaton::build(&pats);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        tok.feed(xml.as_bytes()).unwrap();
        tok.finish().unwrap();
        let mut run = CombinedRun::new(&a);
        let mut charge = |_: PatternId, _: u64| Ok(());
        while let Some(t) = tok.poll_token().unwrap() {
            // Ignore the skip hint: a push driver can't seek.
            run.push(&a, &t, &tok, &mut charge).unwrap();
        }
        let out = run.finish();
        (out.per_pattern, out.stats)
    }

    #[test]
    fn pushed_run_equals_pulled_run_results_and_stats() {
        let patterns = ["/a/b", "/a/c", "//d", "//*"];
        let docs = [
            "<a><b>1</b><c>2</c><x><d>3</d></x></a>",
            "<a><z><junk/><junk deep=\"1\"><q/></junk></z><b/></a>",
            r#"<a><b k="v">t<!--c--></b><?pi data?></a>"#,
            "<root/>",
        ];
        for doc in docs {
            let (pulled, pstats) = run_all(&patterns, doc);
            let (pushed, sstats) = run_pushed(&patterns, doc);
            assert_eq!(oks(&pulled), oks(&pushed), "{doc}");
            assert_eq!(pstats.tokens_seen, sstats.tokens_seen, "{doc}");
            assert_eq!(pstats.tokens_skipped, sstats.tokens_skipped, "{doc}");
            assert_eq!(pstats.matches, sstats.matches, "{doc}");
        }
        // Dead subtrees absorbed internally must also match the pull
        // path's skip accounting when only child patterns are live.
        let (pulled, pstats) = run_all(&["/a/b"], "<a><z><j/><j/></z><b/></a>");
        let (pushed, sstats) = run_pushed(&["/a/b"], "<a><z><j/><j/></z><b/></a>");
        assert_eq!(oks(&pulled), oks(&pushed));
        assert!(sstats.tokens_skipped > 0);
        assert_eq!(pstats.tokens_skipped, sstats.tokens_skipped);
    }

    #[test]
    fn pushed_run_can_pause_at_any_token_boundary() {
        // Feed the document byte-by-byte, pushing tokens as they
        // complete — the run must not care where installments end.
        let doc = "<a><b>outer<b>inner</b></b><c>x</c></a>";
        let (want, _) = run_all(&["//b", "/a/c"], doc);
        let pats = vec![pat("//b"), pat("/a/c")];
        let a = CombinedAutomaton::build(&pats);
        let mut tok = PushTokenizer::new(Arc::new(NamePool::new()));
        let mut run = CombinedRun::new(&a);
        let mut charge = |_: PatternId, _: u64| Ok(());
        for byte in doc.as_bytes() {
            tok.feed(std::slice::from_ref(byte)).unwrap();
            while let Some(t) = tok.poll_token().unwrap() {
                run.push(&a, &t, &tok, &mut charge).unwrap();
            }
        }
        tok.finish().unwrap();
        while let Some(t) = tok.poll_token().unwrap() {
            run.push(&a, &t, &tok, &mut charge).unwrap();
        }
        let out = run.finish();
        assert_eq!(oks(&want), oks(&out.per_pattern));
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
