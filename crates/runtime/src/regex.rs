//! A small backtracking regex engine for `fn:tokenize`, `fn:replace` and
//! `fn:matches`-style needs.
//!
//! Supported syntax (the subset DESIGN.md documents): literals, `.`,
//! escapes (`\s \S \d \D \w \W \\ \.` …), character classes `[a-z0-9_]`
//! / `[^…]` with ranges, greedy quantifiers `* + ?` and `{n,m}`,
//! alternation `|`, and groups `(...)`. No capture references in
//! replacements. Enough for the workloads the talk's use cases exercise;
//! a full XML Schema regex is out of scope.

use xqr_xdm::{Error, ErrorCode, Result};

#[derive(Debug, Clone)]
enum Node {
    /// A sequence of alternatives (at least one).
    Alt(Vec<Vec<Node>>),
    Literal(char),
    AnyChar,
    Class {
        negated: bool,
        singles: Vec<char>,
        ranges: Vec<(char, char)>,
        perl: Vec<char>,
    },
    PerlClass(char),
    /// Quantified sub-node: (min, max).
    Repeat(Box<Node>, usize, Option<usize>),
    Group(Box<Node>),
}

#[derive(Debug, Clone)]
pub(crate) struct Regex {
    root: Node,
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    src: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::new(
            ErrorCode::InvalidPattern,
            format!("{msg} in pattern {:?}", self.src),
        )
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn parse_alt(&mut self) -> Result<Node> {
        let mut alts = vec![Vec::new()];
        loop {
            match self.peek() {
                None | Some(')') => break,
                Some('|') => {
                    self.pos += 1;
                    alts.push(Vec::new());
                }
                _ => {
                    let atom = self.parse_atom()?;
                    let atom = self.parse_quantifier(atom)?;
                    alts.last_mut().expect("non-empty alts").push(atom);
                }
            }
        }
        Ok(Node::Alt(alts))
    }

    fn parse_atom(&mut self) -> Result<Node> {
        match self.bump().ok_or_else(|| self.err("unexpected end"))? {
            '.' => Ok(Node::AnyChar),
            '(' => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unterminated group"));
                }
                Ok(Node::Group(Box::new(inner)))
            }
            '[' => self.parse_class(),
            '\\' => {
                let c = self.bump().ok_or_else(|| self.err("dangling backslash"))?;
                match c {
                    's' | 'S' | 'd' | 'D' | 'w' | 'W' => Ok(Node::PerlClass(c)),
                    'n' => Ok(Node::Literal('\n')),
                    't' => Ok(Node::Literal('\t')),
                    'r' => Ok(Node::Literal('\r')),
                    _ => Ok(Node::Literal(c)),
                }
            }
            c @ ('*' | '+' | '?') => Err(self.err(&format!("dangling quantifier {c}"))),
            c => Ok(Node::Literal(c)),
        }
    }

    fn parse_quantifier(&mut self, atom: Node) -> Result<Node> {
        match self.peek() {
            Some('*') => {
                self.pos += 1;
                Ok(Node::Repeat(Box::new(atom), 0, None))
            }
            Some('+') => {
                self.pos += 1;
                Ok(Node::Repeat(Box::new(atom), 1, None))
            }
            Some('?') => {
                self.pos += 1;
                Ok(Node::Repeat(Box::new(atom), 0, Some(1)))
            }
            Some('{') => {
                self.pos += 1;
                let mut min = String::new();
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    min.push(self.bump().expect("digit"));
                }
                let min: usize = min.parse().map_err(|_| self.err("bad repetition count"))?;
                let max = match self.peek() {
                    Some(',') => {
                        self.pos += 1;
                        if self.peek() == Some('}') {
                            None
                        } else {
                            let mut m = String::new();
                            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                                m.push(self.bump().expect("digit"));
                            }
                            Some(m.parse().map_err(|_| self.err("bad repetition count"))?)
                        }
                    }
                    _ => Some(min),
                };
                if self.bump() != Some('}') {
                    return Err(self.err("unterminated repetition"));
                }
                Ok(Node::Repeat(Box::new(atom), min, max))
            }
            _ => Ok(atom),
        }
    }

    fn parse_class(&mut self) -> Result<Node> {
        let negated = if self.peek() == Some('^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut singles = Vec::new();
        let mut ranges = Vec::new();
        let mut perl = Vec::new();
        loop {
            let c = self
                .bump()
                .ok_or_else(|| self.err("unterminated character class"))?;
            match c {
                ']' => break,
                '\\' => {
                    let e = self.bump().ok_or_else(|| self.err("dangling backslash"))?;
                    match e {
                        's' | 'S' | 'd' | 'D' | 'w' | 'W' => perl.push(e),
                        'n' => singles.push('\n'),
                        't' => singles.push('\t'),
                        other => singles.push(other),
                    }
                }
                c => {
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&n| n != ']')
                    {
                        self.pos += 1; // '-'
                        let hi = self.bump().ok_or_else(|| self.err("bad range"))?;
                        if hi < c {
                            return Err(self.err("inverted character range"));
                        }
                        ranges.push((c, hi));
                    } else {
                        singles.push(c);
                    }
                }
            }
        }
        Ok(Node::Class {
            negated,
            singles,
            ranges,
            perl,
        })
    }
}

fn perl_matches(class: char, c: char) -> bool {
    match class {
        's' => c.is_whitespace(),
        'S' => !c.is_whitespace(),
        'd' => c.is_ascii_digit(),
        'D' => !c.is_ascii_digit(),
        'w' => c.is_alphanumeric() || c == '_',
        'W' => !(c.is_alphanumeric() || c == '_'),
        _ => false,
    }
}

impl Regex {
    pub(crate) fn new(pattern: &str) -> Result<Regex> {
        let mut p = Parser {
            chars: pattern.chars().collect(),
            pos: 0,
            src: pattern,
        };
        let root = p.parse_alt()?;
        if p.pos != p.chars.len() {
            return Err(p.err("unexpected ')'"));
        }
        Ok(Regex { root })
    }

    /// Match at a position; returns all possible end positions via the
    /// continuation (backtracking). We only need the leftmost-longest-ish
    /// first match, so `cont` returns true to accept.
    fn match_node(
        node: &Node,
        text: &[char],
        at: usize,
        cont: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        match node {
            Node::Alt(alts) => {
                for alt in alts {
                    if Self::match_seq(alt, 0, text, at, cont) {
                        return true;
                    }
                }
                false
            }
            Node::Group(inner) => Self::match_node(inner, text, at, cont),
            Node::Literal(c) => {
                if text.get(at) == Some(c) {
                    cont(at + 1)
                } else {
                    false
                }
            }
            Node::AnyChar => {
                if at < text.len() {
                    cont(at + 1)
                } else {
                    false
                }
            }
            Node::PerlClass(p) => {
                if at < text.len() && perl_matches(*p, text[at]) {
                    cont(at + 1)
                } else {
                    false
                }
            }
            Node::Class {
                negated,
                singles,
                ranges,
                perl,
            } => {
                if at >= text.len() {
                    return false;
                }
                let c = text[at];
                let inside = singles.contains(&c)
                    || ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi)
                    || perl.iter().any(|&p| perl_matches(p, c));
                if inside != *negated {
                    cont(at + 1)
                } else {
                    false
                }
            }
            Node::Repeat(inner, min, max) => {
                Self::match_repeat(inner, *min, *max, text, at, 0, cont)
            }
        }
    }

    fn match_repeat(
        inner: &Node,
        min: usize,
        max: Option<usize>,
        text: &[char],
        at: usize,
        count: usize,
        cont: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        // Greedy: try one more repetition first.
        if max.is_none_or(|m| count < m) {
            let matched = Self::match_node(inner, text, at, &mut |next| {
                if next == at {
                    // zero-width repetition guard
                    return false;
                }
                Self::match_repeat(inner, min, max, text, next, count + 1, cont)
            });
            if matched {
                return true;
            }
        }
        if count >= min {
            return cont(at);
        }
        false
    }

    fn match_seq(
        seq: &[Node],
        idx: usize,
        text: &[char],
        at: usize,
        cont: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        match seq.get(idx) {
            None => cont(at),
            Some(node) => Self::match_node(node, text, at, &mut |next| {
                Self::match_seq(seq, idx + 1, text, next, cont)
            }),
        }
    }

    /// Find the first match starting at or after `from`; returns
    /// (start, end) char offsets. Greedy-longest at the first matching
    /// start position.
    pub(crate) fn find(&self, text: &[char], from: usize) -> Option<(usize, usize)> {
        for start in from..=text.len() {
            let mut best: Option<usize> = None;
            Self::match_node(&self.root, text, start, &mut |end| {
                match best {
                    Some(b) if b >= end => {}
                    _ => best = Some(end),
                }
                false // keep exploring for a longer match
            });
            if let Some(end) = best {
                return Some((start, end));
            }
        }
        None
    }

    pub(crate) fn is_match(&self, text: &str) -> bool {
        let chars: Vec<char> = text.chars().collect();
        self.find(&chars, 0).is_some()
    }

    /// `fn:tokenize` semantics: split around non-overlapping matches;
    /// zero-length matches are an error per spec, we skip-step instead.
    pub(crate) fn split(&self, text: &str) -> Vec<String> {
        let chars: Vec<char> = text.chars().collect();
        let mut out = Vec::new();
        let mut last = 0usize;
        let mut from = 0usize;
        while let Some((s, e)) = self.find(&chars, from) {
            if e == s {
                from = s + 1;
                continue;
            }
            out.push(chars[last..s].iter().collect());
            last = e;
            from = e;
        }
        out.push(chars[last..].iter().collect());
        out
    }

    /// `fn:replace` with a literal replacement string.
    pub(crate) fn replace_all(&self, text: &str, replacement: &str) -> String {
        let chars: Vec<char> = text.chars().collect();
        let mut out = String::new();
        let mut last = 0usize;
        let mut from = 0usize;
        while let Some((s, e)) = self.find(&chars, from) {
            if e == s {
                from = s + 1;
                continue;
            }
            out.extend(chars[last..s].iter());
            out.push_str(replacement);
            last = e;
            from = e;
        }
        out.extend(chars[last..].iter());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_matching() {
        let r = Regex::new("abc").unwrap();
        assert!(r.is_match("xxabcxx"));
        assert!(!r.is_match("ab"));
    }

    #[test]
    fn classes_and_escapes() {
        let r = Regex::new(r"\d+").unwrap();
        assert!(r.is_match("a42b"));
        assert!(!r.is_match("abc"));
        let r = Regex::new(r"[a-c]+[0-9]").unwrap();
        assert!(r.is_match("xxcab7"));
        assert!(!r.is_match("d7"));
        let r = Regex::new(r"[^0-9]").unwrap();
        assert!(r.is_match("a"));
        assert!(!r.is_match("7"));
    }

    #[test]
    fn quantifiers() {
        let r = Regex::new("ab*c").unwrap();
        assert!(r.is_match("ac"));
        assert!(r.is_match("abbbc"));
        let r = Regex::new("ab+c").unwrap();
        assert!(!r.is_match("ac"));
        assert!(r.is_match("abc"));
        let r = Regex::new("ab?c").unwrap();
        assert!(r.is_match("ac"));
        assert!(r.is_match("abc"));
        assert!(!r.is_match("abbc"));
        let r = Regex::new("a{2,3}").unwrap();
        assert!(!r.is_match("a"));
        assert!(r.is_match("aa"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = Regex::new("cat|dog").unwrap();
        assert!(r.is_match("hotdog"));
        assert!(r.is_match("catalog"));
        assert!(!r.is_match("bird"));
        let r = Regex::new("a(bc)+d").unwrap();
        assert!(r.is_match("abcbcd"));
        assert!(!r.is_match("ad"));
    }

    #[test]
    fn tokenize_like_split() {
        let r = Regex::new(r"\s+").unwrap();
        assert_eq!(r.split("The cat  sat"), vec!["The", "cat", "sat"]);
        let r = Regex::new(",").unwrap();
        assert_eq!(r.split("a,b,,c"), vec!["a", "b", "", "c"]);
        assert_eq!(r.split(""), vec![""]);
    }

    #[test]
    fn replace_all() {
        let r = Regex::new("o").unwrap();
        assert_eq!(r.replace_all("foo bor", "0"), "f00 b0r");
        let r = Regex::new(r"\d+").unwrap();
        assert_eq!(r.replace_all("a1b22c333", "#"), "a#b#c#");
    }

    #[test]
    fn greedy_matching() {
        let r = Regex::new("a.*b").unwrap();
        let chars: Vec<char> = "aXbYb".chars().collect();
        assert_eq!(r.find(&chars, 0), Some((0, 5)));
    }

    #[test]
    fn invalid_patterns() {
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("(a").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("[a").is_err());
        assert!(Regex::new("[z-a]").is_err());
    }

    #[test]
    fn unicode_text() {
        let r = Regex::new("é+").unwrap();
        assert!(r.is_match("caféé"));
        let r = Regex::new(r"\w+").unwrap();
        assert_eq!(r.split("日本 語"), vec!["", " ", ""]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn literal_patterns_behave_like_str_contains(
            hay in "[abc]{0,12}",
            needle in "[abc]{1,4}",
        ) {
            let re = Regex::new(&needle).unwrap();
            prop_assert_eq!(re.is_match(&hay), hay.contains(&needle));
        }

        #[test]
        fn literal_split_matches_std(
            hay in "[abc,]{0,16}",
        ) {
            let re = Regex::new(",").unwrap();
            let got = re.split(&hay);
            let want: Vec<String> = hay.split(',').map(str::to_string).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn replace_then_match_is_gone(hay in "[abx]{0,16}") {
            let re = Regex::new("x+").unwrap();
            let replaced = re.replace_all(&hay, "y");
            prop_assert!(!replaced.contains('x'));
            // and length change is bounded
            prop_assert!(replaced.len() <= hay.len() + 1);
        }

        #[test]
        fn alternation_is_union(hay in "[abcd]{0,10}") {
            let ab = Regex::new("ab|cd").unwrap();
            prop_assert_eq!(
                ab.is_match(&hay),
                hay.contains("ab") || hay.contains("cd")
            );
        }

        #[test]
        fn char_class_matches_any_member(hay in "[a-f]{1,10}") {
            let re = Regex::new("[ace]").unwrap();
            prop_assert_eq!(
                re.is_match(&hay),
                hay.chars().any(|c| matches!(c, 'a' | 'c' | 'e'))
            );
        }
    }
}
