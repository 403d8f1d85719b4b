//! A hand-written, namespace-aware XML 1.0 pull parser.
//!
//! Single pass, no lookahead buffer beyond one byte, no allocation for
//! structure — strings are allocated only for the content that reaches
//! the consumer. DTDs are skipped (internal subsets are tolerated but
//! not interpreted; external entities are never fetched).
//!
//! The reader runs in one of two modes over the same state machine:
//!
//! * **Whole-document** ([`XmlReader::new`]): the classic pull parser
//!   over a borrowed `&str`. [`XmlReader::next_event`] never blocks on
//!   missing input because the input is complete by construction.
//! * **Incremental** ([`XmlReader::incremental`]): a resumable lexer fed
//!   arbitrary byte chunks via [`XmlReader::feed`]. Tags, attributes,
//!   entities, CDATA sections and multi-byte UTF-8 sequences may
//!   straddle any chunk boundary. [`XmlReader::poll_event`] returns
//!   `Ok(None)` ("need more input") when the buffered bytes end in the
//!   middle of a syntactic unit; the attempt is rolled back and retried
//!   verbatim once more bytes arrive, so the event sequence — including
//!   error codes and byte positions — is identical to parsing the
//!   concatenated document in one piece.
//!
//! Incremental resumption works because the parser mutates durable state
//! (the open-element stack, namespace bindings, `seen_root`,
//! `pending_end`) only *after* a complete syntactic unit has been
//! consumed; an attempt that runs out of buffered bytes only ever moved
//! `pos`, which is restored. Consumed input is drained from the front of
//! the buffer after every delivered event, so memory is bounded by the
//! largest single event plus one chunk, not the document. All error
//! positions are absolute byte offsets from the start of the document
//! (`base + pos`), which stay meaningful when input arrives in chunks.

use crate::event::{Attribute, NamespaceDecl, XmlEvent};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::Arc;
use xqr_xdm::{Error, ErrorCode, QName, QueryGuard, Result};

pub(crate) const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// Hard cap on element nesting regardless of any [`QueryGuard`] limit:
/// downstream consumers (store build, serializer) recurse over element
/// structure, so unbounded depth is a stack-overflow vector. Deep enough
/// for any sane document, far below any thread's stack budget.
pub(crate) const DEFAULT_MAX_DEPTH: usize = 10_000;

/// Resume point for an in-progress content scan, so that feeding a large
/// text run / CDATA section / comment one small chunk at a time stays
/// O(n) overall: each retry of the same event resumes scanning where the
/// previous attempt left off instead of rescanning from the event start.
/// Keyed by absolute origin + needle so a stale hint from a different
/// construct can never skip bytes it hasn't proven needle-free.
struct ScanHint {
    /// Absolute offset of `pos` when the failing scan started.
    origin: usize,
    needle: String,
    /// Absolute offset the scan covered (end of buffer at the time).
    scanned_to: usize,
}

/// Pull parser over an in-memory document, fragment, or a growing
/// incremental buffer.
pub struct XmlReader<'a> {
    /// Document text: borrowed for whole-document parsing, owned and
    /// growable for incremental feeding (consumed prefixes are drained).
    buf: Cow<'a, str>,
    /// Absolute byte offset of `buf[0]` within the full document.
    base: usize,
    pos: usize,
    /// Whole input is present (`new`) or `finish()` has been called.
    eof: bool,
    /// Constructed via [`XmlReader::incremental`].
    incremental: bool,
    /// Set by the innermost scanner when an attempt failed only because
    /// the buffer ended mid-construct; `poll_event` turns this into
    /// `Ok(None)` and rolls the attempt back.
    need_more: Cell<bool>,
    /// Trailing bytes of an incomplete UTF-8 sequence from the last
    /// chunk, prepended to the next chunk (≤ 3 bytes).
    carry: Vec<u8>,
    hint: RefCell<Option<ScanHint>>,
    /// Stack of open element names (lexical, for end-tag matching) plus
    /// the number of namespace bindings each frame pushed.
    open: Vec<(QName, usize)>,
    /// Namespace bindings, innermost last: (prefix, uri). `None` prefix is
    /// the default namespace; an empty uri un-declares.
    ns: Vec<(Option<Arc<str>>, Arc<str>)>,
    started: bool,
    finished: bool,
    /// Pending EndElement to emit after an empty-element tag.
    pending_end: Option<QName>,
    seen_root: bool,
    /// Optional per-execution budget: nesting depth, document size.
    guard: Option<QueryGuard>,
}

/// `rest` could still grow into `full` with more input.
fn proper_prefix_of(rest: &[u8], full: &[u8]) -> bool {
    rest.len() < full.len() && full.starts_with(rest)
}

impl<'a> XmlReader<'a> {
    pub fn new(input: &'a str) -> Self {
        XmlReader {
            buf: Cow::Borrowed(input),
            base: 0,
            pos: 0,
            eof: true,
            incremental: false,
            need_more: Cell::new(false),
            carry: Vec::new(),
            hint: RefCell::new(None),
            open: Vec::new(),
            ns: Vec::new(),
            started: false,
            finished: false,
            pending_end: None,
            seen_root: false,
            guard: None,
        }
    }

    /// Attach a per-execution guard; the reader then also enforces the
    /// guard's XML depth and document-size limits.
    pub fn with_guard(mut self, guard: QueryGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Current absolute byte offset, for error reporting and progress
    /// accounting. Equals bytes consumed plus the in-progress event's
    /// scan position.
    pub fn position(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes buffered but not yet consumed (incremental mode): the
    /// in-progress event plus any incomplete trailing UTF-8 sequence.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos + self.carry.len()
    }

    fn src(&self) -> &str {
        self.buf.as_ref()
    }

    fn bytes(&self) -> &[u8] {
        self.buf.as_ref().as_bytes()
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::syntax(msg.into()).at(self.base + self.pos)
    }

    /// The buffer ended mid-construct and more input may arrive: flag the
    /// attempt for rollback. Only meaningful when `!self.eof`.
    fn need(&self) -> Error {
        self.need_more.set(true);
        Error::syntax("need more input").at(self.base + self.pos)
    }

    /// Error if the input is complete, otherwise "need more input".
    fn err_or_need(&self, msg: impl Into<String>) -> Error {
        if self.eof {
            self.err(msg)
        } else {
            self.need()
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.bytes()[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.eat(s) {
            Ok(())
        } else if !self.eof && proper_prefix_of(&self.bytes()[self.pos..], s.as_bytes()) {
            Err(self.need())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Pull the next event. After `EndDocument`, keeps returning
    /// `EndDocument`. Whole-document mode only; incremental readers use
    /// [`XmlReader::poll_event`].
    pub fn next_event(&mut self) -> Result<XmlEvent> {
        debug_assert!(self.eof || self.incremental);
        self.need_more.set(false);
        self.next_event_inner()
    }

    fn next_event_inner(&mut self) -> Result<XmlEvent> {
        xqr_faults::faultpoint!("xml.read");
        if let Some(guard) = &self.guard {
            guard
                .check_document_bytes((self.base + self.pos) as u64)
                .map_err(|e| e.at(self.base + self.pos))?;
        }
        if !self.started {
            self.started = true;
            self.skip_prolog()?;
            return Ok(XmlEvent::StartDocument);
        }
        if let Some(name) = self.pending_end.take() {
            self.pop_element();
            return Ok(XmlEvent::EndElement { name });
        }
        if self.finished {
            return Ok(XmlEvent::EndDocument);
        }
        // Between-root-content handling: at top level, whitespace,
        // comments and PIs are allowed; anything else after the root
        // closed is an error.
        loop {
            if self.at_eof() {
                if !self.eof {
                    return Err(self.need());
                }
                if !self.open.is_empty() {
                    return Err(self.err("unexpected end of input: unclosed elements"));
                }
                if !self.seen_root {
                    return Err(self.err("document has no root element"));
                }
                self.finished = true;
                return Ok(XmlEvent::EndDocument);
            }
            if self.open.is_empty() {
                // Only misc allowed at top level besides the single root.
                let save = self.pos;
                self.skip_ws();
                if self.at_eof() {
                    continue;
                }
                if self.peek() != Some(b'<') {
                    return Err(self.err("text content outside the root element"));
                }
                self.pos = if self.pos > save { self.pos } else { save };
            }
            match self.peek() {
                Some(b'<') => {
                    // A truncated buffer may still grow into a longer
                    // marker: wait rather than misparse "<![CD" as a tag.
                    if !self.eof {
                        let rest = &self.bytes()[self.pos..];
                        if proper_prefix_of(rest, b"<!--") || proper_prefix_of(rest, b"<![CDATA[") {
                            return Err(self.need());
                        }
                    }
                    if self.eat("<!--") {
                        return self.read_comment();
                    }
                    if self.eat("<![CDATA[") {
                        return self.read_cdata();
                    }
                    if self.eat("<?") {
                        return self.read_pi();
                    }
                    if self.bytes().get(self.pos + 1) == Some(&b'/') {
                        self.pos += 2;
                        return self.read_end_tag();
                    }
                    if self.bytes().get(self.pos + 1) == Some(&b'!') {
                        return Err(self.err("unexpected markup declaration in content"));
                    }
                    self.pos += 1;
                    return self.read_start_tag();
                }
                Some(_) => return self.read_text(),
                None => continue,
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<()> {
        // Optional XML declaration. With incomplete input, anything that
        // could still become "<?xml " must wait — misrouting it to the
        // PI path would report "PI target 'xml' is reserved".
        if !self.eof {
            let rest = &self.bytes()[self.pos..];
            if !rest.is_empty() && rest.len() <= 5 && b"<?xml".starts_with(rest) {
                return Err(self.need());
            }
        }
        if self.bytes()[self.pos..].starts_with(b"<?xml")
            && matches!(
                self.bytes().get(self.pos + 5),
                Some(b' ' | b'\t' | b'\r' | b'\n' | b'?')
            )
        {
            let end = self
                .find("?>")
                .ok_or_else(|| self.err_or_need("unterminated XML declaration"))?;
            self.pos = end + 2;
        }
        loop {
            self.skip_ws();
            if !self.eof {
                let rest = &self.bytes()[self.pos..];
                // The prolog is only known complete once the root tag (or
                // a definite error) is in the buffer: an empty tail or a
                // partial misc marker may still grow into more prolog.
                if rest.is_empty()
                    || proper_prefix_of(rest, b"<!DOCTYPE")
                    || proper_prefix_of(rest, b"<!--")
                    || proper_prefix_of(rest, b"<?")
                {
                    return Err(self.need());
                }
            }
            if self.bytes()[self.pos..].starts_with(b"<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.bytes()[self.pos..].starts_with(b"<!--") {
                self.pos += 4;
                let end = self
                    .find("-->")
                    .ok_or_else(|| self.err_or_need("unterminated comment"))?;
                self.pos = end + 3;
            } else if self.bytes()[self.pos..].starts_with(b"<?") {
                let end = self
                    .find("?>")
                    .ok_or_else(|| self.err_or_need("unterminated PI"))?;
                self.pos = end + 2;
            } else {
                break;
            }
        }
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<()> {
        self.pos += "<!DOCTYPE".len();
        let mut depth = 1usize;
        let mut in_internal = false;
        while let Some(b) = self.bump() {
            match b {
                b'[' => in_internal = true,
                b']' => in_internal = false,
                b'<' if in_internal => depth += 1,
                b'>' if !in_internal => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        Err(self.err_or_need("unterminated DOCTYPE"))
    }

    fn find(&self, needle: &str) -> Option<usize> {
        let s = self.src();
        let mut from = self.pos;
        if let Some(h) = self.hint.borrow().as_ref() {
            if h.origin == self.base + self.pos && h.needle == needle {
                let scanned = (h.scanned_to - self.base).min(s.len());
                let mut resume = scanned.saturating_sub(needle.len() - 1).max(self.pos);
                while !s.is_char_boundary(resume) {
                    resume -= 1;
                }
                from = resume;
            }
        }
        match s[from..].find(needle) {
            Some(i) => Some(from + i),
            None => {
                if !self.eof {
                    // Remember how far we scanned so the retry after the
                    // next feed() resumes here instead of at `pos`.
                    *self.hint.borrow_mut() = Some(ScanHint {
                        origin: self.base + self.pos,
                        needle: needle.to_string(),
                        scanned_to: self.base + s.len(),
                    });
                }
                None
            }
        }
    }

    /// Read a (possibly prefixed) name; `:` is accepted here and the
    /// prefix/local split is validated by `split_name`. Returns the
    /// buffer range of the name (stable for the rest of this attempt:
    /// compaction only happens between events).
    fn read_name(&mut self) -> Result<Range<usize>> {
        let start = self.pos;
        let mut chars = self.src()[self.pos..].char_indices();
        match chars.next() {
            Some((_, c)) if is_name_start(c) => {}
            None if !self.eof => return Err(self.need()),
            _ => return Err(self.err("expected a name")),
        }
        let mut end = self.src().len();
        for (i, c) in chars {
            if !(is_name_char(c) || c == ':') {
                end = start + i;
                break;
            }
        }
        if end == self.src().len() && !self.eof {
            // The name runs to the end of the buffer and may continue.
            return Err(self.need());
        }
        self.pos = end;
        Ok(start..end)
    }

    fn split_name(&self, r: Range<usize>) -> Result<(Option<Range<usize>>, Range<usize>)> {
        let name = &self.src()[r.clone()];
        match name.split_once(':') {
            Some((p, l)) => {
                if p.is_empty() || l.is_empty() || l.contains(':') {
                    Err(self.err(format!("invalid QName {name:?}")))
                } else {
                    let split = r.start + p.len();
                    Ok((Some(r.start..split), split + 1..r.end))
                }
            }
            None => Ok((None, r)),
        }
    }

    fn resolve_range(&self, r: Range<usize>, is_attr: bool) -> Result<QName> {
        let (pr, lr) = self.split_name(r)?;
        let prefix = pr.map(|p| &self.src()[p]);
        let local = &self.src()[lr];
        self.resolve(prefix, local, is_attr)
    }

    fn resolve(&self, prefix: Option<&str>, local: &str, is_attr: bool) -> Result<QName> {
        match prefix {
            None => {
                if is_attr {
                    // Unprefixed attributes are in no namespace.
                    return Ok(QName::local(local));
                }
                // Default namespace for elements.
                for (p, uri) in self.ns.iter().rev() {
                    if p.is_none() {
                        if uri.is_empty() {
                            return Ok(QName::local(local));
                        }
                        return Ok(QName::ns(uri, local));
                    }
                }
                Ok(QName::local(local))
            }
            Some("xml") => Ok(QName::prefixed(XML_NS, "xml", local)),
            Some(p) => {
                for (bp, uri) in self.ns.iter().rev() {
                    if bp.as_deref() == Some(p) {
                        if uri.is_empty() {
                            return Err(Error::new(
                                ErrorCode::UnboundPrefix,
                                format!("prefix {p:?} has been undeclared"),
                            )
                            .at(self.base + self.pos));
                        }
                        return Ok(QName::prefixed(uri, p, local));
                    }
                }
                Err(
                    Error::new(ErrorCode::UnboundPrefix, format!("unbound prefix {p:?}"))
                        .at(self.base + self.pos),
                )
            }
        }
    }

    fn read_start_tag(&mut self) -> Result<XmlEvent> {
        let raw_name = self.read_name()?;
        let mut raw_attrs: Vec<(Range<usize>, String)> = Vec::new();
        let mut decls: Vec<NamespaceDecl> = Vec::new();
        loop {
            let ws_start = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return self.finish_start_tag(raw_name, raw_attrs, decls, false);
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(">")?;
                    return self.finish_start_tag(raw_name, raw_attrs, decls, true);
                }
                Some(_) => {
                    if self.pos == ws_start {
                        return Err(self.err("expected whitespace before attribute"));
                    }
                    if matches!(self.peek(), Some(b'>' | b'/')) {
                        continue;
                    }
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    // Namespace declarations are bindings, not attributes.
                    // `None` = plain attribute, `Some(prefix)` = binding.
                    let binding: Option<Option<Arc<str>>> = {
                        let an = &self.src()[attr_name.clone()];
                        if an == "xmlns" {
                            Some(None)
                        } else if let Some(p) = an.strip_prefix("xmlns:") {
                            if p.is_empty() {
                                return Err(self.err("empty namespace prefix"));
                            }
                            Some(Some(Arc::from(p)))
                        } else {
                            None
                        }
                    };
                    match binding {
                        Some(prefix) => decls.push(NamespaceDecl {
                            prefix,
                            uri: Arc::from(value.as_str()),
                        }),
                        None => raw_attrs.push((attr_name, value)),
                    }
                }
                None => return Err(self.err_or_need("unterminated start tag")),
            }
        }
    }

    fn finish_start_tag(
        &mut self,
        raw_name: Range<usize>,
        raw_attrs: Vec<(Range<usize>, String)>,
        decls: Vec<NamespaceDecl>,
        empty: bool,
    ) -> Result<XmlEvent> {
        if self.open.is_empty() {
            if self.seen_root {
                return Err(self.err("multiple root elements"));
            }
            self.seen_root = true;
        }
        let depth = self.open.len() + 1;
        if depth > DEFAULT_MAX_DEPTH {
            return Err(Error::limit(format!(
                "XML nesting depth limit of {DEFAULT_MAX_DEPTH} exceeded"
            ))
            .at(self.base + self.pos));
        }
        if let Some(guard) = &self.guard {
            guard
                .enter_depth(depth as u64)
                .map_err(|e| e.at(self.base + self.pos))?;
        }
        // Push bindings before resolving names on this element.
        for d in &decls {
            self.ns.push((d.prefix.clone(), d.uri.clone()));
        }
        let name = self.resolve_range(raw_name, false)?;
        let mut attributes = Vec::with_capacity(raw_attrs.len());
        for (an, av) in &raw_attrs {
            let qn = self.resolve_range(an.clone(), true)?;
            if attributes.iter().any(|a: &Attribute| a.name == qn) {
                return Err(Error::new(
                    ErrorCode::DuplicateAttribute,
                    format!("duplicate attribute {qn}"),
                )
                .at(self.base + self.pos));
            }
            attributes.push(Attribute {
                name: qn,
                value: Arc::from(av.as_str()),
            });
        }
        if empty {
            self.pending_end = Some(name.clone());
            // The frame is popped when the pending end is delivered.
            self.open.push((name.clone(), decls.len()));
        } else {
            self.open.push((name.clone(), decls.len()));
        }
        Ok(XmlEvent::StartElement {
            name,
            attributes,
            namespaces: decls,
            empty,
        })
    }

    fn pop_element(&mut self) {
        if let Some((_, n_decls)) = self.open.pop() {
            for _ in 0..n_decls {
                self.ns.pop();
            }
        }
    }

    fn read_end_tag(&mut self) -> Result<XmlEvent> {
        let raw_name = self.read_name()?;
        self.skip_ws();
        self.expect(">")?;
        let name = self.resolve_range(raw_name, false)?;
        match self.open.last() {
            Some((open_name, _)) if *open_name == name => {
                self.pop_element();
                Ok(XmlEvent::EndElement { name })
            }
            Some((open_name, _)) => Err(self.err(format!(
                "mismatched end tag: expected </{}>, found </{}>",
                open_name, name
            ))),
            None => Err(self.err(format!("unmatched end tag </{name}>"))),
        }
    }

    fn read_text(&mut self) -> Result<XmlEvent> {
        if self.open.is_empty() {
            return Err(self.err("text content outside the root element"));
        }
        // A text run only ends at '<' (or a definite error): until one is
        // buffered the event cannot complete, so skip the accumulation
        // pass entirely. The scan hint makes repeated probes O(new bytes).
        if !self.eof && self.find("<").is_none() {
            return Err(self.need());
        }
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => {
                    let c = self.read_entity()?;
                    out.push_str(&c);
                }
                Some(b']') if self.bytes()[self.pos..].starts_with(b"]]>") => {
                    return Err(self.err("']]>' not allowed in character data"));
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<'
                            || b == b'&'
                            || (b == b']' && self.bytes()[self.pos..].starts_with(b"]]>"))
                        {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.src()[start..self.pos]);
                }
            }
        }
        Ok(XmlEvent::Text(normalize_newlines(&out).into()))
    }

    fn read_entity(&mut self) -> Result<String> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let end = self
            .find(";")
            .ok_or_else(|| self.err_or_need("unterminated entity reference"))?;
        let start = self.pos;
        self.pos = end + 1;
        let name = &self.src()[start..end];
        match name {
            "lt" => Ok("<".into()),
            "gt" => Ok(">".into()),
            "amp" => Ok("&".into()),
            "quot" => Ok("\"".into()),
            "apos" => Ok("'".into()),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let cp = u32::from_str_radix(&name[2..], 16)
                    .map_err(|_| self.err(format!("bad character reference &{name};")))?;
                Ok(char::from_u32(cp)
                    .ok_or_else(|| self.err(format!("invalid codepoint in &{name};")))?
                    .to_string())
            }
            _ if name.starts_with('#') => {
                let cp = name[1..]
                    .parse::<u32>()
                    .map_err(|_| self.err(format!("bad character reference &{name};")))?;
                Ok(char::from_u32(cp)
                    .ok_or_else(|| self.err(format!("invalid codepoint in &{name};")))?
                    .to_string())
            }
            _ => Err(self.err(format!("unknown entity &{name}; (no DTD entity support)"))),
        }
    }

    fn read_attr_value(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                q
            }
            None if !self.eof => return Err(self.need()),
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err_or_need("unterminated attribute value")),
                Some(q) if q == quote => {
                    self.pos += 1;
                    break;
                }
                Some(b'<') => return Err(self.err("'<' not allowed in attribute value")),
                Some(b'&') => {
                    let c = self.read_entity()?;
                    out.push_str(&c);
                }
                Some(b'\t') | Some(b'\n') | Some(b'\r') => {
                    // Attribute-value normalization: whitespace → space.
                    let was_cr = self.peek() == Some(b'\r');
                    out.push(' ');
                    self.pos += 1;
                    if was_cr {
                        if self.peek() == Some(b'\n') {
                            self.pos += 1;
                        } else if self.at_eof() && !self.eof {
                            // A '\r' at the buffer edge may be the first
                            // half of "\r\n"; wait rather than normalize
                            // it alone. (The whole event rolls back.)
                            return Err(self.need());
                        }
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote
                            || b == b'&'
                            || b == b'<'
                            || b == b'\t'
                            || b == b'\n'
                            || b == b'\r'
                        {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.src()[start..self.pos]);
                }
            }
        }
        Ok(out)
    }

    fn read_comment(&mut self) -> Result<XmlEvent> {
        let end = self
            .find("--")
            .ok_or_else(|| self.err_or_need("unterminated comment"))?;
        if end + 3 > self.src().len() && !self.eof {
            // "--" right at the buffer edge may still become "-->".
            return Err(self.need());
        }
        if !self.src()[end..].starts_with("-->") {
            return Err(self.err("'--' not allowed inside a comment"));
        }
        let text = normalize_newlines(&self.src()[self.pos..end]);
        self.pos = end + 3;
        Ok(XmlEvent::Comment(text.into()))
    }

    fn read_cdata(&mut self) -> Result<XmlEvent> {
        if self.open.is_empty() {
            return Err(self.err("CDATA outside the root element"));
        }
        let end = self
            .find("]]>")
            .ok_or_else(|| self.err_or_need("unterminated CDATA section"))?;
        let text = normalize_newlines(&self.src()[self.pos..end]);
        self.pos = end + 3;
        Ok(XmlEvent::Text(text.into()))
    }

    fn read_pi(&mut self) -> Result<XmlEvent> {
        let target = self.read_name()?;
        if self.src()[target.clone()].eq_ignore_ascii_case("xml") {
            return Err(self.err("PI target 'xml' is reserved"));
        }
        let end = self
            .find("?>")
            .ok_or_else(|| self.err_or_need("unterminated PI"))?;
        let target: Arc<str> = Arc::from(&self.src()[target]);
        let data: Arc<str> =
            Arc::from(normalize_newlines(self.src()[self.pos..end].trim_start()).as_str());
        self.pos = end + 2;
        Ok(XmlEvent::ProcessingInstruction { target, data })
    }
}

/// Incremental (chunk-fed) construction and operations.
impl XmlReader<'static> {
    /// A resumable reader with an initially empty buffer: feed bytes with
    /// [`XmlReader::feed`], pull completed events with
    /// [`XmlReader::poll_event`], and mark end-of-input with
    /// [`XmlReader::finish`].
    pub fn incremental() -> Self {
        let mut r = XmlReader::new("");
        r.buf = Cow::Owned(String::new());
        r.eof = false;
        r.incremental = true;
        r
    }

    /// Append a chunk of document bytes. Chunk boundaries are arbitrary:
    /// an incomplete trailing UTF-8 sequence is carried over and joined
    /// with the next chunk. Fails only on definitely-invalid UTF-8.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<()> {
        assert!(self.incremental, "feed() requires XmlReader::incremental()");
        assert!(!self.eof, "feed() after finish()");
        if self.carry.is_empty() {
            self.append_utf8(chunk)
        } else {
            let mut joined = std::mem::take(&mut self.carry);
            joined.extend_from_slice(chunk);
            self.append_utf8(&joined)
        }
    }

    fn append_utf8(&mut self, bytes: &[u8]) -> Result<()> {
        match std::str::from_utf8(bytes) {
            Ok(s) => {
                self.buf.to_mut().push_str(s);
                Ok(())
            }
            Err(e) => {
                let valid = e.valid_up_to();
                if e.error_len().is_some() {
                    // Definitely malformed, not merely truncated.
                    return Err(Error::syntax("invalid UTF-8 in document")
                        .at(self.base + self.buf.len() + valid));
                }
                let (ok, rest) = bytes.split_at(valid);
                self.buf
                    .to_mut()
                    .push_str(std::str::from_utf8(ok).expect("validated prefix"));
                self.carry = rest.to_vec();
                Ok(())
            }
        }
    }

    /// Mark end-of-input: constructs that were waiting for more bytes now
    /// resolve (to completion or to the same error the whole-document
    /// parse would report). Errors if the input ended inside a multi-byte
    /// UTF-8 sequence.
    pub fn finish(&mut self) -> Result<()> {
        self.eof = true;
        if !self.carry.is_empty() {
            self.carry.clear();
            return Err(Error::syntax("incomplete UTF-8 sequence at end of input")
                .at(self.base + self.buf.len()));
        }
        Ok(())
    }

    /// Try to pull the next event from the buffered bytes. `Ok(None)`
    /// means the buffer ends mid-construct: feed more bytes (or call
    /// [`XmlReader::finish`]) and poll again — the attempt was rolled
    /// back, so the eventual event sequence is identical to parsing the
    /// whole document at once. After a real error the reader is poisoned
    /// for document purposes; callers stop at the first `Err`. Once
    /// `EndDocument` has been delivered the stream is over: every later
    /// poll returns `Ok(None)` (unlike [`XmlReader::next_event`], which
    /// repeats `EndDocument` for its fused-iterator callers).
    pub fn poll_event(&mut self) -> Result<Option<XmlEvent>> {
        if self.finished {
            return Ok(None);
        }
        let save_pos = self.pos;
        let save_started = self.started;
        self.need_more.set(false);
        match self.next_event_inner() {
            Ok(ev) => {
                self.compact();
                Ok(Some(ev))
            }
            Err(e) => {
                if self.need_more.get() {
                    self.pos = save_pos;
                    self.started = save_started;
                    Ok(None)
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Drop consumed bytes from the front of the buffer so memory tracks
    /// the in-progress event, not the document.
    fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        if let Cow::Owned(s) = &mut self.buf {
            s.drain(..self.pos);
        }
        self.base += self.pos;
        self.pos = 0;
        *self.hint.borrow_mut() = None;
    }
}

/// XML 1.0 end-of-line handling: `\r\n` and `\r` become `\n`.
fn normalize_newlines(s: &str) -> String {
    if !s.contains('\r') {
        return s.to_string();
    }
    s.replace("\r\n", "\n").replace('\r', "\n")
}

pub fn is_name_start(c: char) -> bool {
    c.is_ascii_alphabetic()
        || c == '_'
        || (!c.is_ascii() && c.is_alphabetic())
        || matches!(c, '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}')
}

pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '-' || c == '.' || c == '\u{B7}'
}

/// Convenience: collect all events of a document, failing fast.
pub(crate) fn parse_events(input: &str) -> Result<Vec<XmlEvent>> {
    let mut reader = XmlReader::new(input);
    let mut events = Vec::new();
    loop {
        let ev = reader.next_event()?;
        let done = ev == XmlEvent::EndDocument;
        events.push(ev);
        if done {
            return Ok(events);
        }
    }
}

/// [`parse_events`] over chunked input: feed each chunk in order, then
/// finish. The tests' oracle that chunk boundaries never change the
/// result.
#[cfg(test)]
fn parse_events_chunked<'c>(chunks: impl IntoIterator<Item = &'c [u8]>) -> Result<Vec<XmlEvent>> {
    let mut reader = XmlReader::incremental();
    let mut events = Vec::new();
    let drain = |reader: &mut XmlReader<'static>, events: &mut Vec<XmlEvent>| -> Result<bool> {
        while let Some(ev) = reader.poll_event()? {
            let done = ev == XmlEvent::EndDocument;
            events.push(ev);
            if done {
                return Ok(true);
            }
        }
        Ok(false)
    };
    for chunk in chunks {
        reader.feed(chunk)?;
        if drain(&mut reader, &mut events)? {
            return Ok(events);
        }
    }
    reader.finish()?;
    loop {
        match reader.poll_event()? {
            Some(ev) => {
                let done = ev == XmlEvent::EndDocument;
                events.push(ev);
                if done {
                    return Ok(events);
                }
            }
            None => return Err(Error::internal("incremental reader stalled after finish()")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(events: &[XmlEvent]) -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                XmlEvent::Text(t) => Some(t.to_string()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn simple_document() {
        let evs = parse_events("<a><b>hi</b></a>").unwrap();
        assert_eq!(evs.len(), 7); // SD, <a>, <b>, text, </b>, </a>, ED
        assert!(matches!(&evs[1], XmlEvent::StartElement { name, .. } if name.local_name() == "a"));
        assert_eq!(texts(&evs), vec!["hi"]);
    }

    #[test]
    fn empty_element_emits_balanced_events() {
        let evs = parse_events("<a><b/></a>").unwrap();
        let starts = evs
            .iter()
            .filter(|e| matches!(e, XmlEvent::StartElement { .. }))
            .count();
        let ends = evs
            .iter()
            .filter(|e| matches!(e, XmlEvent::EndElement { .. }))
            .count();
        assert_eq!(starts, 2);
        assert_eq!(ends, 2);
    }

    #[test]
    fn attributes_and_duplicates() {
        let evs = parse_events(r#"<book year="1967" title='x'/>"#).unwrap();
        match &evs[1] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes.len(), 2);
                assert_eq!(&*attributes[0].value, "1967");
            }
            other => panic!("{other:?}"),
        }
        let err = parse_events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::DuplicateAttribute);
    }

    #[test]
    fn namespace_resolution() {
        let evs = parse_events(
            r#"<book xmlns="urn:b" xmlns:a="urn:a"><a:ref a:isbn="1"/><title/></book>"#,
        )
        .unwrap();
        match &evs[1] {
            XmlEvent::StartElement {
                name, namespaces, ..
            } => {
                assert_eq!(name.namespace(), Some("urn:b"));
                assert_eq!(namespaces.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        match &evs[2] {
            XmlEvent::StartElement {
                name, attributes, ..
            } => {
                assert_eq!(name.namespace(), Some("urn:a"));
                assert_eq!(name.local_name(), "ref");
                // prefixed attribute is in the prefix namespace
                assert_eq!(attributes[0].name.namespace(), Some("urn:a"));
            }
            other => panic!("{other:?}"),
        }
        // <title/> inherits the default namespace
        match &evs[4] {
            XmlEvent::StartElement { name, .. } => assert_eq!(name.namespace(), Some("urn:b")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unprefixed_attribute_has_no_namespace() {
        let evs = parse_events(r#"<a xmlns="urn:x" b="1"/>"#).unwrap();
        match &evs[1] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].name.namespace(), None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_namespace_undeclaration() {
        let evs = parse_events(r#"<a xmlns="urn:x"><b xmlns=""/></a>"#).unwrap();
        match &evs[2] {
            XmlEvent::StartElement { name, .. } => assert_eq!(name.namespace(), None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbound_prefix_is_an_error() {
        let err = parse_events("<x:a/>").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnboundPrefix);
    }

    #[test]
    fn xml_prefix_is_predeclared() {
        let evs = parse_events(r#"<a xml:lang="en"/>"#).unwrap();
        match &evs[1] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].name.namespace(), Some(XML_NS));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn entities_and_char_refs() {
        let evs = parse_events("<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>").unwrap();
        assert_eq!(texts(&evs), vec![r#"<>&"'AB"#]);
        assert!(parse_events("<a>&nope;</a>").is_err());
        assert!(parse_events("<a>&#xD800;</a>").is_err()); // surrogate
    }

    #[test]
    fn cdata_is_text() {
        let evs = parse_events("<a><![CDATA[<not> & markup]]></a>").unwrap();
        assert_eq!(texts(&evs), vec!["<not> & markup"]);
    }

    #[test]
    fn comments_and_pis() {
        let evs = parse_events("<a><!-- note --><?target some data?></a>").unwrap();
        assert!(matches!(&evs[2], XmlEvent::Comment(c) if &**c == " note "));
        assert!(matches!(
            &evs[3],
            XmlEvent::ProcessingInstruction { target, data }
                if &**target == "target" && &**data == "some data"
        ));
        assert!(parse_events("<a><!-- a -- b --></a>").is_err());
    }

    #[test]
    fn prolog_is_skipped() {
        let doc = "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ENTITY x \"y\">]>\n<!-- hi -->\n<a/>";
        let evs = parse_events(doc).unwrap();
        assert!(evs
            .iter()
            .any(|e| matches!(e, XmlEvent::StartElement { .. })));
    }

    #[test]
    fn well_formedness_errors() {
        assert!(parse_events("<a><b></a></b>").is_err());
        assert!(parse_events("<a>").is_err());
        assert!(parse_events("</a>").is_err());
        assert!(parse_events("<a/><b/>").is_err());
        assert!(parse_events("text").is_err());
        assert!(parse_events("").is_err());
        assert!(parse_events("<a>]]></a>").is_err());
        assert!(parse_events("<a b=<c>/>").is_err());
        assert!(parse_events(r#"<a b="x<y"/>"#).is_err());
    }

    #[test]
    fn mixed_content_order_is_preserved() {
        let evs = parse_events("<s>The great <title>P</title> Even facts</s>").unwrap();
        let kinds: Vec<&str> = evs
            .iter()
            .map(|e| match e {
                XmlEvent::StartDocument => "SD",
                XmlEvent::EndDocument => "ED",
                XmlEvent::StartElement { .. } => "SE",
                XmlEvent::EndElement { .. } => "EE",
                XmlEvent::Text(_) => "T",
                XmlEvent::Comment(_) => "C",
                XmlEvent::ProcessingInstruction { .. } => "PI",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["SD", "SE", "T", "SE", "T", "EE", "T", "EE", "ED"]
        );
    }

    #[test]
    fn attribute_value_normalization() {
        let evs = parse_events("<a b=\"x\n\ty\"/>").unwrap();
        match &evs[1] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(&*attributes[0].value, "x  y");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn newline_normalization_in_text() {
        let evs = parse_events("<a>x\r\ny\rz</a>").unwrap();
        assert_eq!(texts(&evs), vec!["x\ny\nz"]);
    }

    #[test]
    fn nested_namespace_scopes() {
        // The talk's "nested scopes" slide: same prefix rebound inside.
        let doc = r#"<a xmlns:ns="uri1"><ns:x/><b xmlns:ns="uri2"><ns:x/></b><ns:x/></a>"#;
        let evs = parse_events(doc).unwrap();
        let uris: Vec<Option<String>> = evs
            .iter()
            .filter_map(|e| match e {
                XmlEvent::StartElement { name, .. } if name.local_name() == "x" => {
                    Some(name.namespace().map(str::to_string))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            uris,
            vec![
                Some("uri1".to_string()),
                Some("uri2".to_string()),
                Some("uri1".to_string())
            ]
        );
    }

    #[test]
    fn deep_nesting() {
        let mut doc = String::new();
        for _ in 0..1000 {
            doc.push_str("<a>");
        }
        for _ in 0..1000 {
            doc.push_str("</a>");
        }
        let evs = parse_events(&doc).unwrap();
        assert_eq!(evs.len(), 2002);
    }

    #[test]
    fn pathological_nesting_hits_depth_limit() {
        // 100k-deep would overflow downstream recursion; the reader must
        // refuse it with the stable limit code instead.
        let doc = "<a>".repeat(100_000);
        let mut r = super::XmlReader::new(&doc);
        let err = loop {
            match r.next_event() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
        assert!(err.message.contains("depth"), "{err}");
    }

    #[test]
    fn guard_depth_limit_is_tighter_than_hard_cap() {
        use xqr_xdm::{Limits, QueryGuard};
        let doc = format!("{}{}", "<a>".repeat(50), "</a>".repeat(50));
        let guard = QueryGuard::new(Limits::unlimited().with_max_xml_depth(10));
        let mut r = super::XmlReader::new(&doc).with_guard(guard.clone());
        let err = loop {
            match r.next_event() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
        assert_eq!(guard.usage().peak_depth, 11);
    }

    #[test]
    fn guard_document_size_limit() {
        use xqr_xdm::{Limits, QueryGuard};
        let doc = format!("<r>{}</r>", "x".repeat(10_000));
        let guard = QueryGuard::new(Limits::unlimited().with_max_document_bytes(100));
        let mut r = super::XmlReader::new(&doc).with_guard(guard);
        let err = loop {
            match r.next_event() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
        assert!(err.message.contains("document size"), "{err}");
    }

    #[test]
    fn unicode_names_and_content() {
        let evs = parse_events("<données champ=\"é\">日本語</données>").unwrap();
        assert!(
            matches!(&evs[1], XmlEvent::StartElement { name, .. } if name.local_name() == "données")
        );
        assert_eq!(texts(&evs), vec!["日本語"]);
    }

    // ---- incremental (chunk-fed) mode -------------------------------

    /// Every two-chunk split of `doc` must yield the same events (or the
    /// same error code) as the whole-document parse.
    fn assert_split_invariant(doc: &str) {
        let whole = parse_events(doc);
        let bytes = doc.as_bytes();
        for cut in 0..=bytes.len() {
            let chunked = parse_events_chunked([&bytes[..cut], &bytes[cut..]]);
            match (&whole, &chunked) {
                (Ok(w), Ok(c)) => assert_eq!(w, c, "split at {cut} in {doc:?}"),
                (Err(w), Err(c)) => {
                    assert_eq!(w.code, c.code, "split at {cut} in {doc:?}: {w} vs {c}")
                }
                (w, c) => panic!("split at {cut} in {doc:?}: whole={w:?} chunked={c:?}"),
            }
        }
    }

    #[test]
    fn incremental_matches_whole_document_at_every_split() {
        for doc in [
            "<a><b>hi</b></a>",
            r#"<book year="1967" title='x'/>"#,
            r#"<book xmlns="urn:b" xmlns:a="urn:a"><a:ref a:isbn="1"/><title/></book>"#,
            "<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>",
            "<a><![CDATA[<not> & markup]]></a>",
            "<a><!-- note --><?target some data?></a>",
            "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ENTITY x \"y\">]>\n<!-- hi -->\n<a/>",
            "<données champ=\"é\">日本語</données>",
            "<a>x\r\ny\rz</a>",
            "<a b=\"x\r\ny\"/>",
            "<s>The great <title>P</title> Even facts</s>",
            " <a/> \n<!-- after -->\n<?pi data?> ",
        ] {
            assert_split_invariant(doc);
        }
    }

    #[test]
    fn incremental_split_invariant_holds_for_malformed_docs() {
        for doc in [
            "<a><b></a></b>",
            "<a>",
            "</a>",
            "<a/><b/>",
            "text",
            "",
            "<a>]]></a>",
            "<a b=<c>/>",
            r#"<a b="x<y"/>"#,
            "<a>&nope;</a>",
            "<a><!-- a -- b --></a>",
            "<x:a/>",
            "<a><![CDATA[never closed</a>",
            "<a><?pi never closed</a>",
        ] {
            assert_split_invariant(doc);
        }
    }

    #[test]
    fn one_byte_chunks_match_whole_document() {
        let doc =
            "<?xml version=\"1.0\"?><r a=\"v&amp;w\"><![CDATA[x]]><b>é—&#x42;</b><!--c--></r>";
        let whole = parse_events(doc).unwrap();
        let chunks: Vec<&[u8]> = doc.as_bytes().chunks(1).collect();
        let chunked = parse_events_chunked(chunks).unwrap();
        assert_eq!(whole, chunked);
    }

    #[test]
    fn utf8_codepoint_split_across_chunks() {
        let doc = "<a>日本語</a>";
        let bytes = doc.as_bytes();
        // Cut inside the first multi-byte character ("日" starts at 3).
        let evs = parse_events_chunked([&bytes[..4], &bytes[4..]]).unwrap();
        assert_eq!(texts(&evs), vec!["日本語"]);
    }

    #[test]
    fn truncated_utf8_at_end_of_input_errors() {
        let mut r = XmlReader::incremental();
        r.feed(
            "<a>é"
                .as_bytes()
                .split_last()
                .map(|(_, rest)| rest)
                .unwrap(),
        )
        .unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_utf8_mid_stream_errors() {
        let mut r = XmlReader::incremental();
        assert!(r.feed(b"<a>\xff\xfe</a>").is_err());
    }

    #[test]
    fn error_positions_are_absolute_across_chunks() {
        // "x<y" inside an attribute at a known absolute offset.
        let doc = r#"<root><a b="x<y"/></root>"#;
        let whole_err = parse_events(doc).unwrap_err();
        let bytes = doc.as_bytes();
        let chunked_err = parse_events_chunked([&bytes[..9], &bytes[9..]]).unwrap_err();
        assert_eq!(whole_err.position, chunked_err.position);
        assert!(whole_err.position.unwrap() > 9, "{whole_err:?}");
    }

    #[test]
    fn incremental_buffer_is_compacted_between_events() {
        // Stream a long document; after draining, the buffer must hold
        // only the unconsumed tail, not everything ever fed.
        let mut r = XmlReader::incremental();
        r.feed(b"<r>").unwrap();
        let mut n = 0;
        for _ in 0..1000 {
            r.feed(b"<a>text</a>").unwrap();
            while let Some(_ev) = r.poll_event().unwrap() {
                n += 1;
            }
            assert!(
                r.buffered_bytes() < 64,
                "consumed events must be drained, {} bytes held",
                r.buffered_bytes()
            );
        }
        r.feed(b"</r>").unwrap();
        r.finish().unwrap();
        while let Some(ev) = r.poll_event().unwrap() {
            n += 1;
            if ev == XmlEvent::EndDocument {
                break;
            }
        }
        assert_eq!(n, 2 + 3 * 1000 + 2); // SD <r> (SE T EE)×1000 </r> ED
    }

    #[test]
    fn one_byte_feed_is_not_quadratic_on_large_text() {
        // 200 KiB of text fed one byte at a time: the scan-hint must keep
        // the repeated "is there a '<' yet" probes O(chunk), not O(run²).
        let body = "y".repeat(200 * 1024);
        let doc = format!("<a>{body}</a>");
        let mut r = XmlReader::incremental();
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        for b in doc.as_bytes() {
            r.feed(std::slice::from_ref(b)).unwrap();
            while let Some(ev) = r.poll_event().unwrap() {
                events.push(ev);
            }
        }
        r.finish().unwrap();
        while let Some(ev) = r.poll_event().unwrap() {
            let done = ev == XmlEvent::EndDocument;
            events.push(ev);
            if done {
                break;
            }
        }
        assert_eq!(texts(&events), vec![body]);
        // Generous bound: quadratic rescans would take minutes here.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn guard_limits_apply_to_incremental_reads() {
        use xqr_xdm::{Limits, QueryGuard};
        let guard = QueryGuard::new(Limits::unlimited().with_max_document_bytes(64));
        let mut r = XmlReader::incremental().with_guard(guard);
        r.feed(format!("<r>{}</r>", "x".repeat(1000)).as_bytes())
            .unwrap();
        let err = loop {
            match r.poll_event() {
                Ok(Some(_)) => continue,
                Ok(None) => {
                    r.finish().unwrap();
                    continue;
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err.code, xqr_xdm::ErrorCode::Limit);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::{parse_events, parse_events_chunked};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn xml_parser_never_panics(s in ".{0,100}") {
            let _ = parse_events(&s);
        }

        #[test]
        fn xml_parser_never_panics_on_markupish(s in "[a-z<>/=\"'& ;!\\[\\]-]{0,80}") {
            let _ = parse_events(&s);
        }

        #[test]
        fn chunked_parse_equals_whole_parse(
            s in "[a-z<>/=\"'& ;!?\\[\\]x-]{0,60}",
            cuts in proptest::collection::vec(0usize..=60, 0..4),
        ) {
            let bytes = s.as_bytes();
            let mut points: Vec<usize> =
                cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            points.sort_unstable();
            points.dedup();
            let mut chunks = Vec::new();
            let mut prev = 0;
            for p in points {
                chunks.push(&bytes[prev..p]);
                prev = p;
            }
            chunks.push(&bytes[prev..]);
            let whole = parse_events(&s);
            let chunked = parse_events_chunked(chunks);
            match (whole, chunked) {
                (Ok(w), Ok(c)) => prop_assert_eq!(w, c),
                (Err(w), Err(c)) => prop_assert_eq!(w.code, c.code),
                (w, c) => prop_assert!(false, "whole={:?} chunked={:?}", w, c),
            }
        }
    }
}
