//! Binary (wire/disk) encoding of a TokenStream.
//!
//! "Disk: binary representation (compressed) ... serialization: use
//! special pragma tokens for compression; use special encodings for all
//! END tokens." The encoder emits a *definition* pragma the first time a
//! string or name is referenced and a varint id afterwards (pooled mode),
//! or inlines every occurrence (unpooled mode) — experiment E4 compares
//! the two.

use crate::stream::TokenStream;
use crate::token::{StrId, Token};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::sync::Arc;
use xqr_xdm::{Error, NameId, NamePool, QName, Result};

const MAGIC: &[u8; 4] = b"XQTS";
const VERSION: u8 = 1;

// Token opcodes. END tokens get the smallest encodings (one byte).
const OP_END_ELEMENT: u8 = 0;
const OP_END_DOCUMENT: u8 = 1;
const OP_START_DOCUMENT: u8 = 2;
const OP_START_ELEMENT: u8 = 3;
const OP_ATTRIBUTE: u8 = 4;
const OP_NAMESPACE: u8 = 5;
const OP_TEXT: u8 = 6;
const OP_COMMENT: u8 = 7;
const OP_PI: u8 = 8;
// Pooled-mode slot tags: a pooled string/name slot starts with one of
// these, making definitions unambiguous from references (a bare varint
// id would collide with the tag byte space — caught by the roundtrip
// property test).
const TAG_REF: u8 = 0;
const TAG_DEF: u8 = 1;

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(b);
            return;
        }
        buf.put_u8(b | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        if !buf.has_remaining() {
            return Err(Error::value("truncated varint in token stream"));
        }
        let b = buf.get_u8();
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::value("varint overflow in token stream"));
        }
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(Error::value("truncated string in token stream"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::value("invalid UTF-8 in token stream"))
}

fn put_opt_str(buf: &mut BytesMut, s: Option<&str>) {
    match s {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
    }
}

fn get_opt_str(buf: &mut Bytes) -> Result<Option<String>> {
    if !buf.has_remaining() {
        return Err(Error::value("truncated option tag in token stream"));
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf)?)),
        _ => Err(Error::value("bad option tag in token stream")),
    }
}

struct Encoder<'s> {
    stream: &'s TokenStream,
    out: BytesMut,
    pooled: bool,
    str_ids: HashMap<StrId, u64>,
    name_ids: HashMap<NameId, u64>,
}

impl<'s> Encoder<'s> {
    fn str_ref(&mut self, id: StrId) {
        if self.pooled {
            let next = self.str_ids.len() as u64;
            match self.str_ids.get(&id) {
                Some(wire) => {
                    self.out.put_u8(TAG_REF);
                    let w = *wire;
                    put_varint(&mut self.out, w)
                }
                None => {
                    self.out.put_u8(TAG_DEF);
                    put_str(&mut self.out, self.stream.str(id));
                    self.str_ids.insert(id, next);
                }
            }
        } else {
            put_str(&mut self.out, self.stream.str(id));
        }
    }

    fn name_ref(&mut self, id: NameId) {
        let q = self.stream.name(id);
        if self.pooled {
            let next = self.name_ids.len() as u64;
            match self.name_ids.get(&id) {
                Some(wire) => {
                    self.out.put_u8(TAG_REF);
                    let w = *wire;
                    put_varint(&mut self.out, w)
                }
                None => {
                    self.out.put_u8(TAG_DEF);
                    put_opt_str(&mut self.out, q.namespace());
                    put_opt_str(&mut self.out, q.prefix());
                    put_str(&mut self.out, q.local_name());
                    self.name_ids.insert(id, next);
                }
            }
        } else {
            put_opt_str(&mut self.out, q.namespace());
            put_opt_str(&mut self.out, q.prefix());
            put_str(&mut self.out, q.local_name());
        }
    }
}

/// Encode a stream. `pooled = false` reproduces the naive wire format for
/// the pooling experiment.
pub fn encode(stream: &TokenStream, pooled: bool) -> Bytes {
    let mut enc = Encoder {
        stream,
        out: BytesMut::with_capacity(stream.len() * 4),
        pooled,
        str_ids: HashMap::new(),
        name_ids: HashMap::new(),
    };
    enc.out.put_slice(MAGIC);
    enc.out.put_u8(VERSION);
    enc.out.put_u8(pooled as u8);
    for &t in stream.tokens() {
        match t {
            Token::EndElement => enc.out.put_u8(OP_END_ELEMENT),
            Token::EndDocument => enc.out.put_u8(OP_END_DOCUMENT),
            Token::StartDocument => enc.out.put_u8(OP_START_DOCUMENT),
            Token::StartElement(n) => {
                enc.out.put_u8(OP_START_ELEMENT);
                enc.name_ref(n);
            }
            Token::Attribute(n, v) => {
                enc.out.put_u8(OP_ATTRIBUTE);
                enc.name_ref(n);
                enc.str_ref(v);
            }
            Token::NamespaceDecl(p, u) => {
                enc.out.put_u8(OP_NAMESPACE);
                enc.str_ref(p);
                enc.str_ref(u);
            }
            Token::Text(s) => {
                enc.out.put_u8(OP_TEXT);
                enc.str_ref(s);
            }
            Token::Comment(s) => {
                enc.out.put_u8(OP_COMMENT);
                enc.str_ref(s);
            }
            Token::ProcessingInstruction(n, d) => {
                enc.out.put_u8(OP_PI);
                enc.name_ref(n);
                enc.str_ref(d);
            }
        }
    }
    enc.out.freeze()
}

struct Decoder {
    buf: Bytes,
    pooled: bool,
    strings: Vec<String>,
    names: Vec<QName>,
}

impl Decoder {
    fn read_str(&mut self) -> Result<String> {
        if self.pooled {
            if !self.buf.has_remaining() {
                return Err(Error::value("truncated pooled string slot"));
            }
            match self.buf.get_u8() {
                TAG_DEF => {
                    let s = get_str(&mut self.buf)?;
                    self.strings.push(s.clone());
                    Ok(s)
                }
                TAG_REF => {
                    let id = get_varint(&mut self.buf)? as usize;
                    self.strings
                        .get(id)
                        .cloned()
                        .ok_or_else(|| Error::value("dangling string id in token stream"))
                }
                _ => Err(Error::value("bad pooled string tag")),
            }
        } else {
            get_str(&mut self.buf)
        }
    }

    fn read_name(&mut self) -> Result<QName> {
        if self.pooled {
            if !self.buf.has_remaining() {
                return Err(Error::value("truncated pooled name slot"));
            }
            match self.buf.get_u8() {
                TAG_DEF => {
                    let q = Self::read_inline_name(&mut self.buf)?;
                    self.names.push(q.clone());
                    Ok(q)
                }
                TAG_REF => {
                    let id = get_varint(&mut self.buf)? as usize;
                    self.names
                        .get(id)
                        .cloned()
                        .ok_or_else(|| Error::value("dangling name id in token stream"))
                }
                _ => Err(Error::value("bad pooled name tag")),
            }
        } else {
            Self::read_inline_name(&mut self.buf)
        }
    }

    fn read_inline_name(buf: &mut Bytes) -> Result<QName> {
        let ns = get_opt_str(buf)?;
        let prefix = get_opt_str(buf)?;
        let local = get_str(buf)?;
        Ok(match (ns, prefix) {
            (Some(ns), Some(p)) => QName::prefixed(&ns, &p, &local),
            (Some(ns), None) => QName::ns(&ns, &local),
            (None, _) => QName::local(&local),
        })
    }
}

/// Decode bytes produced by [`encode`] into a fresh TokenStream.
pub fn decode(bytes: Bytes, names: Arc<NamePool>) -> Result<TokenStream> {
    let mut buf = bytes;
    if buf.remaining() < 6 {
        return Err(Error::value("truncated token stream header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(Error::value("bad token stream magic"));
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(Error::value(format!(
            "unsupported token stream version {version}"
        )));
    }
    let pooled = buf.get_u8() != 0;
    let mut dec = Decoder {
        buf,
        pooled,
        strings: Vec::new(),
        names: Vec::new(),
    };
    let mut b = TokenStream::builder(names);
    while dec.buf.has_remaining() {
        let op = dec.buf.get_u8();
        match op {
            OP_END_ELEMENT => b.push(Token::EndElement),
            OP_END_DOCUMENT => b.push(Token::EndDocument),
            OP_START_DOCUMENT => b.push(Token::StartDocument),
            OP_START_ELEMENT => {
                let q = dec.read_name()?;
                b.start_element(&q);
            }
            OP_ATTRIBUTE => {
                let q = dec.read_name()?;
                let v = dec.read_str()?;
                b.attribute(&q, &v);
            }
            OP_NAMESPACE => {
                let p = dec.read_str()?;
                let u = dec.read_str()?;
                let p2 = b.intern_str(&p);
                let u2 = b.intern_str(&u);
                b.push(Token::NamespaceDecl(p2, u2));
            }
            OP_TEXT => {
                let s = dec.read_str()?;
                b.text(&s);
            }
            OP_COMMENT => {
                let s = dec.read_str()?;
                let id = b.intern_str(&s);
                b.push(Token::Comment(id));
            }
            OP_PI => {
                let q = dec.read_name()?;
                let d = dec.read_str()?;
                let n = b.intern_name(&q);
                let id = b.intern_str(&d);
                b.push(Token::ProcessingInstruction(n, id));
            }
            other => return Err(Error::value(format!("unknown token opcode {other}"))),
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(repeats: usize) -> TokenStream {
        let mut xml = String::from("<list>");
        for i in 0..repeats {
            xml.push_str(&format!(
                r#"<entry kind="book"><title>Common Title</title><n>{i}</n></entry>"#
            ));
        }
        xml.push_str("</list>");
        TokenStream::from_xml(&xml, Arc::new(NamePool::new())).unwrap()
    }

    #[test]
    fn roundtrip_pooled() {
        let s = sample(5);
        let bytes = encode(&s, true);
        let back = decode(bytes, Arc::new(NamePool::new())).unwrap();
        assert_eq!(s.len(), back.len());
        let a = crate::tokenizer::tokens_to_xml(&mut s.iter(), Default::default()).unwrap();
        let b = crate::tokenizer::tokens_to_xml(&mut back.iter(), Default::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_unpooled() {
        let s = sample(5);
        let bytes = encode(&s, false);
        let back = decode(bytes, Arc::new(NamePool::new())).unwrap();
        let a = crate::tokenizer::tokens_to_xml(&mut s.iter(), Default::default()).unwrap();
        let b = crate::tokenizer::tokens_to_xml(&mut back.iter(), Default::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pooling_shrinks_repetitive_documents() {
        let s = sample(200);
        let pooled = encode(&s, true).len();
        let unpooled = encode(&s, false).len();
        assert!(
            pooled * 2 < unpooled,
            "pooled={pooled} unpooled={unpooled}: expected at least 2x"
        );
    }

    #[test]
    fn end_tokens_are_one_byte() {
        // <a/> has SD, SE, EE, ED: encoding should spend 1 byte on each
        // END token.
        let s = TokenStream::from_xml("<a/>", Arc::new(NamePool::new())).unwrap();
        let bytes = encode(&s, true);
        // header(6) + SD(1) + SE(1 + tag(1) + none(1) + none(1) +
        // len("a")(1) + "a"(1)) + EE(1) + ED(1)
        assert_eq!(bytes.len(), 6 + 1 + 1 + 5 + 1 + 1);
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(decode(Bytes::from_static(b"nope"), Arc::new(NamePool::new())).is_err());
        assert!(decode(
            Bytes::from_static(b"XQTS\x09\x00"),
            Arc::new(NamePool::new())
        )
        .is_err());
        let s = sample(1);
        let mut bytes = encode(&s, true).to_vec();
        bytes.truncate(bytes.len() - 3);
        assert!(decode(Bytes::from(bytes), Arc::new(NamePool::new())).is_err());
    }

    #[test]
    fn namespaces_survive_roundtrip() {
        let xml = r#"<a xmlns="urn:d" xmlns:p="urn:p"><p:b p:x="1"/></a>"#;
        let s = TokenStream::from_xml(xml, Arc::new(NamePool::new())).unwrap();
        for pooled in [true, false] {
            let back = decode(encode(&s, pooled), Arc::new(NamePool::new())).unwrap();
            let out =
                crate::tokenizer::tokens_to_xml(&mut back.iter(), Default::default()).unwrap();
            assert_eq!(out, xml, "pooled={pooled}");
        }
    }
}
