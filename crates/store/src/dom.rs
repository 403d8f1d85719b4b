//! A deliberately conventional pointer-based DOM — the "Trees (e.g. DOM)"
//! representation the talk contrasts with arrays:
//!
//! * "natural representation of XML data; good support of navigation" —
//!   children are owned `Vec`s of refcounted nodes;
//! * "difficult to use in streaming; difficult for query processing:
//!   mixes indexes and data" — every node is a separate heap allocation.
//!
//! Experiment E3 builds the same documents as DOM, TokenStream and the
//! labeled store and compares construction time, scan time and memory.

use std::cell::RefCell;
use std::rc::{Rc, Weak};
use xqr_xdm::{NodeKind, QName, Result};
use xqr_xmlparse::{XmlEvent, XmlReader};

pub type DomRef = Rc<RefCell<DomNode>>;

/// One heap-allocated tree node.
#[derive(Debug)]
pub struct DomNode {
    pub kind: NodeKind,
    pub name: Option<QName>,
    pub value: String,
    pub attributes: Vec<(QName, String)>,
    pub children: Vec<DomRef>,
    pub parent: Weak<RefCell<DomNode>>,
}

impl DomNode {
    fn new(kind: NodeKind) -> DomRef {
        Rc::new(RefCell::new(DomNode {
            kind,
            name: None,
            value: String::new(),
            attributes: Vec::new(),
            children: Vec::new(),
            parent: Weak::new(),
        }))
    }
}

/// Parse XML text into a DOM tree, returning the document node.
pub fn parse_dom(input: &str) -> Result<DomRef> {
    let mut reader = XmlReader::new(input);
    let doc = DomNode::new(NodeKind::Document);
    let mut stack: Vec<DomRef> = vec![doc.clone()];
    loop {
        match reader.next_event()? {
            XmlEvent::StartDocument => {}
            XmlEvent::EndDocument => break,
            XmlEvent::StartElement {
                name, attributes, ..
            } => {
                let el = DomNode::new(NodeKind::Element);
                {
                    let mut n = el.borrow_mut();
                    n.name = Some(name);
                    n.attributes = attributes
                        .into_iter()
                        .map(|a| (a.name, a.value.to_string()))
                        .collect();
                    n.parent = Rc::downgrade(stack.last().expect("stack non-empty"));
                }
                stack
                    .last()
                    .expect("stack non-empty")
                    .borrow_mut()
                    .children
                    .push(el.clone());
                stack.push(el);
            }
            XmlEvent::EndElement { .. } => {
                stack.pop();
            }
            XmlEvent::Text(t) => {
                let tn = DomNode::new(NodeKind::Text);
                tn.borrow_mut().value = t.to_string();
                tn.borrow_mut().parent = Rc::downgrade(stack.last().expect("stack non-empty"));
                stack
                    .last()
                    .expect("stack non-empty")
                    .borrow_mut()
                    .children
                    .push(tn);
            }
            XmlEvent::Comment(c) => {
                let cn = DomNode::new(NodeKind::Comment);
                cn.borrow_mut().value = c.to_string();
                stack
                    .last()
                    .expect("stack non-empty")
                    .borrow_mut()
                    .children
                    .push(cn);
            }
            XmlEvent::ProcessingInstruction { target, data } => {
                let pn = DomNode::new(NodeKind::ProcessingInstruction);
                {
                    let mut n = pn.borrow_mut();
                    n.name = Some(QName::local(&target));
                    n.value = data.to_string();
                }
                stack
                    .last()
                    .expect("stack non-empty")
                    .borrow_mut()
                    .children
                    .push(pn);
            }
        }
    }
    Ok(doc)
}

/// Count nodes (bench helper: forces a full navigation pass).
pub fn count_nodes(node: &DomRef) -> usize {
    let n = node.borrow();
    1 + n.children.iter().map(count_nodes).sum::<usize>()
}

/// Find descendant elements by local name (navigational baseline probe).
pub fn descendants_named(node: &DomRef, local: &str, out: &mut Vec<DomRef>) {
    let n = node.borrow();
    for c in &n.children {
        {
            let cb = c.borrow();
            if cb.kind == NodeKind::Element
                && cb
                    .name
                    .as_ref()
                    .map(|q| q.local_name() == local)
                    .unwrap_or(false)
            {
                out.push(c.clone());
            }
        }
        descendants_named(c, local, out);
    }
}

/// Rough per-node memory estimate for the comparison table: struct size
/// plus owned strings and vec headers (undercounts allocator overhead,
/// which only favours DOM in the comparison).
pub fn memory_bytes(node: &DomRef) -> usize {
    let n = node.borrow();
    let own = std::mem::size_of::<DomNode>()
        + n.value.len()
        + n.attributes
            .iter()
            .map(|(q, v)| q.local_name().len() + v.len() + 48)
            .sum::<usize>()
        + n.children.capacity() * std::mem::size_of::<DomRef>();
    own + n.children.iter().map(memory_bytes).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_structure() {
        let d = parse_dom(r#"<a x="1"><b>hi</b><c/></a>"#).unwrap();
        assert_eq!(count_nodes(&d), 5); // doc, a, b, text, c
        let a = d.borrow().children[0].clone();
        assert_eq!(a.borrow().attributes.len(), 1);
        let b = a.borrow().children[0].clone();
        assert_eq!(b.borrow().children[0].borrow().value, "hi");
    }

    #[test]
    fn parent_links_work() {
        let d = parse_dom("<a><b/></a>").unwrap();
        let a = d.borrow().children[0].clone();
        let b = a.borrow().children[0].clone();
        let p = b.borrow().parent.upgrade().unwrap();
        assert!(Rc::ptr_eq(&p, &a));
    }

    #[test]
    fn descendant_search() {
        let d = parse_dom("<a><b/><c><b/></c></a>").unwrap();
        let mut found = Vec::new();
        descendants_named(&d, "b", &mut found);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn memory_is_counted() {
        let d = parse_dom("<a><b>some text content here</b></a>").unwrap();
        assert!(memory_bytes(&d) > 100);
    }
}
