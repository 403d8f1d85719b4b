//! The three comparison families from the talk's comparison table:
//! value comparisons (`eq`…), general comparisons (`=`… with
//! "existential quantification + automatic type coercion"), and node
//! comparisons (`is`, `<<`, `>>`).

use crate::env::LeaseTable;
use crate::value::{atomize_one, Item};
use std::cmp::Ordering;
use xqr_xdm::{AtomicType, AtomicValue, Error, Result, TzOffset};
use xqr_xqparser::ast::CompOp;

fn ordering_satisfies(op: CompOp, ord: Ordering) -> bool {
    match op {
        CompOp::ValEq | CompOp::GenEq => ord.is_eq(),
        CompOp::ValNe | CompOp::GenNe => !ord.is_eq(),
        CompOp::ValLt | CompOp::GenLt => ord.is_lt(),
        CompOp::ValLe | CompOp::GenLe => ord.is_le(),
        CompOp::ValGt | CompOp::GenGt => ord.is_gt(),
        CompOp::ValGe | CompOp::GenGe => ord.is_ge(),
        _ => unreachable!("node ops handled separately"),
    }
}

/// Value comparison: empty-preserving, singletons only.
pub(crate) fn value_compare(
    op: CompOp,
    lhs: &[Item],
    rhs: &[Item],
    docs: &LeaseTable,
    tz: TzOffset,
) -> Result<Option<bool>> {
    let a = match atomize_one(lhs, docs, op.symbol())? {
        Some(v) => v,
        None => return Ok(None),
    };
    let b = match atomize_one(rhs, docs, op.symbol())? {
        Some(v) => v,
        None => return Ok(None),
    };
    match a.value_compare(&b, tz)? {
        Some(ord) => Ok(Some(ordering_satisfies(op, ord))),
        None => Ok(Some(matches!(op, CompOp::ValNe))), // NaN: only ne is true
    }
}

/// Coerce an untyped operand against the other operand's type, per the
/// general-comparison rules: vs numeric → double; vs untyped/string →
/// string; otherwise cast to the other type.
fn coerce_pair(a: &AtomicValue, b: &AtomicValue) -> Result<(AtomicValue, AtomicValue)> {
    use AtomicType as T;
    let coerce = |u: &AtomicValue, other: &AtomicValue| -> Result<AtomicValue> {
        match other.type_of() {
            t if t.is_numeric() => u.cast_to(T::Double),
            T::UntypedAtomic | T::String => Ok(AtomicValue::string(u.string_value().as_str())),
            t => u.cast_to(t),
        }
    };
    match (
        matches!(a, AtomicValue::UntypedAtomic(_)),
        matches!(b, AtomicValue::UntypedAtomic(_)),
    ) {
        (true, false) => Ok((coerce(a, b)?, b.clone())),
        (false, true) => Ok((a.clone(), coerce(b, a)?)),
        (true, true) => Ok((
            AtomicValue::string(a.string_value().as_str()),
            AtomicValue::string(b.string_value().as_str()),
        )),
        (false, false) => Ok((a.clone(), b.clone())),
    }
}

/// General comparison: true iff some pair of atomized values satisfies
/// the comparison after coercion.
pub(crate) fn general_compare(
    op: CompOp,
    lhs: &[Item],
    rhs: &[Item],
    docs: &LeaseTable,
    tz: TzOffset,
) -> Result<bool> {
    // Atomize lazily on the left, eagerly once on the right.
    let rhs_vals: Vec<AtomicValue> = rhs
        .iter()
        .map(|i| i.typed_value(docs))
        .collect::<Result<_>>()?;
    for li in lhs {
        let a = li.typed_value(docs)?;
        for b in &rhs_vals {
            let (ca, cb) = coerce_pair(&a, b)?;
            if let Some(ord) = ca.value_compare(&cb, tz)? {
                if ordering_satisfies(op, ord) {
                    return Ok(true);
                }
            } else if matches!(op, CompOp::GenNe) {
                // NaN != anything.
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// Node comparisons: `is`, `<<`, `>>`. Empty-preserving; operands must
/// be single nodes.
pub(crate) fn node_compare(op: CompOp, lhs: &[Item], rhs: &[Item]) -> Result<Option<bool>> {
    let one_node = |items: &[Item]| -> Result<Option<xqr_store::NodeRef>> {
        match items {
            [] => Ok(None),
            [Item::Node(n)] => Ok(Some(*n)),
            _ => Err(Error::type_error(format!(
                "operator {} requires single nodes",
                op.symbol()
            ))),
        }
    };
    let a = match one_node(lhs)? {
        Some(n) => n,
        None => return Ok(None),
    };
    let b = match one_node(rhs)? {
        Some(n) => n,
        None => return Ok(None),
    };
    Ok(Some(match op {
        CompOp::Is => a == b,
        CompOp::Before => a < b,
        CompOp::After => a > b,
        _ => unreachable!("value/general ops handled separately"),
    }))
}

#[cfg(test)]
// `&[x.clone()]` reads as "a one-item operand sequence" in these tests;
// `slice::from_ref` would obscure that.
#[allow(clippy::cloned_ref_to_slice_refs)]
mod tests {
    use super::*;
    use xqr_store::{NodeRef, Store};

    /// Atomic operands read no document.
    fn docs() -> LeaseTable {
        LeaseTable::default()
    }

    fn int(i: i64) -> Item {
        Item::integer(i)
    }

    fn untyped(s: &str) -> Item {
        Item::Atomic(AtomicValue::untyped(s))
    }

    #[test]
    fn general_comparison_is_existential() {
        let s = docs();
        // (1,2) = (2,3) → true (the talk's example)
        assert!(
            general_compare(CompOp::GenEq, &[int(1), int(2)], &[int(2), int(3)], &s, 0).unwrap()
        );
        // (1,3) = (1,2) and also != — not transitive, famously.
        assert!(general_compare(CompOp::GenNe, &[int(1), int(2)], &[int(1)], &s, 0).unwrap());
        assert!(general_compare(CompOp::GenEq, &[int(1), int(2)], &[int(1)], &s, 0).unwrap());
        // empty vs anything → false
        assert!(!general_compare(CompOp::GenEq, &[], &[int(1)], &s, 0).unwrap());
    }

    #[test]
    fn general_comparison_coerces_untyped_to_number() {
        let s = docs();
        // <a>42</a> = 42 → true (untyped coerced to double)
        assert!(general_compare(CompOp::GenEq, &[untyped("42")], &[int(42)], &s, 0).unwrap());
        assert!(general_compare(
            CompOp::GenEq,
            &[untyped("42")],
            &[Item::Atomic(AtomicValue::Double(42.0))],
            &s,
            0
        )
        .unwrap());
        // <a>baz</a> = 42 → type error (cast fails)
        assert!(general_compare(CompOp::GenEq, &[untyped("baz")], &[int(42)], &s, 0).is_err());
        // untyped vs string: string comparison
        assert!(general_compare(
            CompOp::GenEq,
            &[untyped("42")],
            &[Item::string("42")],
            &s,
            0
        )
        .unwrap());
    }

    #[test]
    fn value_comparison_empty_preserving() {
        let s = docs();
        assert_eq!(
            value_compare(CompOp::ValEq, &[], &[int(42)], &s, 0).unwrap(),
            None
        );
        assert_eq!(
            value_compare(CompOp::ValEq, &[int(42)], &[int(42)], &s, 0).unwrap(),
            Some(true)
        );
        assert!(value_compare(CompOp::ValEq, &[int(1), int(2)], &[int(1)], &s, 0).is_err());
    }

    #[test]
    fn value_comparison_nan() {
        let s = docs();
        let nan = Item::Atomic(AtomicValue::Double(f64::NAN));
        assert_eq!(
            value_compare(CompOp::ValEq, &[nan.clone()], &[nan.clone()], &s, 0).unwrap(),
            Some(false)
        );
        assert_eq!(
            value_compare(CompOp::ValNe, &[nan.clone()], &[nan], &s, 0).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn node_comparisons() {
        let s = Store::new();
        let lease = s.lease_xml("<a><b/><c/></a>", None).unwrap();
        let (d, doc) = (lease.id, &lease.doc);
        let a = doc.first_child(doc.root()).unwrap();
        let b = doc.first_child(a).unwrap();
        let c = doc.next_sibling(b).unwrap();
        let nb = Item::Node(NodeRef::new(d, b));
        let nc = Item::Node(NodeRef::new(d, c));
        assert_eq!(
            node_compare(CompOp::Is, &[nb.clone()], &[nb.clone()]).unwrap(),
            Some(true)
        );
        assert_eq!(
            node_compare(CompOp::Is, &[nb.clone()], &[nc.clone()]).unwrap(),
            Some(false)
        );
        assert_eq!(
            node_compare(CompOp::Before, &[nb.clone()], &[nc.clone()]).unwrap(),
            Some(true)
        );
        assert_eq!(
            node_compare(CompOp::After, &[nc], &[nb.clone()]).unwrap(),
            Some(true)
        );
        assert_eq!(node_compare(CompOp::Is, &[], &[nb.clone()]).unwrap(), None);
        assert!(node_compare(CompOp::Is, &[int(1)], &[nb]).is_err());
    }
}
