//! The built-in function library (the engine's F&O subset — every entry
//! in `xqr_compiler::builtins::BUILTINS` is implemented here; a test
//! asserts the two lists stay in sync).

use crate::env::ExecState;
use crate::eval::{Evaluator, Flow, Sink};
use crate::regex::Regex;
use crate::value::{atomize, atomize_one, deep_equal_item, Item, Sequence};
use std::collections::HashSet;
use xqr_compiler::Core;
use xqr_store::NodeRef;
use xqr_xdm::{AtomicType, AtomicValue, Decimal, Duration, Error, ErrorCode, Result};

/// Evaluate a built-in call, streaming results into `sink`.
pub(crate) fn call(
    ev: &Evaluator<'_>,
    name: &str,
    args: &[Core],
    st: &mut ExecState,
    sink: &mut dyn Sink,
) -> Result<Flow> {
    let result = dispatch(ev, name, args, st)?;
    for item in result {
        if sink.accept(ev, st, item)? == Flow::Done {
            return Ok(Flow::Done);
        }
    }
    Ok(Flow::More)
}

fn one_string(
    ev: &Evaluator<'_>,
    args: &[Core],
    idx: usize,
    st: &mut ExecState,
) -> Result<Option<String>> {
    let items = ev.eval(&args[idx], st)?;
    Ok(atomize_one(&items, &st.leases, "string argument")?.map(|v| v.string_value()))
}

fn string_or_empty(
    ev: &Evaluator<'_>,
    args: &[Core],
    idx: usize,
    st: &mut ExecState,
) -> Result<String> {
    Ok(one_string(ev, args, idx, st)?.unwrap_or_default())
}

/// The context item, or the focus error.
fn ctx_item(st: &ExecState) -> Result<Item> {
    st.context_item().cloned()
}

fn int_item(i: i64) -> Sequence {
    vec![Item::integer(i)]
}

fn str_item(s: impl AsRef<str>) -> Sequence {
    vec![Item::string(s.as_ref())]
}

fn bool_item(b: bool) -> Sequence {
    vec![Item::boolean(b)]
}

fn dispatch(ev: &Evaluator<'_>, name: &str, args: &[Core], st: &mut ExecState) -> Result<Sequence> {
    let tz = ev.dyn_ctx.implicit_timezone;
    Ok(match name {
        // ---- context ---------------------------------------------------------
        "position" => {
            let f = st.focus().ok_or_else(|| {
                Error::new(ErrorCode::MissingContext, "position() outside a focus")
            })?;
            int_item(f.position)
        }
        "last" => {
            let f = st
                .focus()
                .ok_or_else(|| Error::new(ErrorCode::MissingContext, "last() outside a focus"))?;
            let size = f.size.ok_or_else(|| {
                Error::internal("last() used where context size was not computed")
            })?;
            int_item(size)
        }

        // ---- accessors --------------------------------------------------------
        "string" => {
            let s = if args.is_empty() {
                ctx_item(st)?.string_value(&st.leases)
            } else {
                let items = ev.eval(&args[0], st)?;
                match items.len() {
                    0 => String::new(),
                    1 => items[0].string_value(&st.leases),
                    _ => return Err(Error::type_error("fn:string on a multi-item sequence")),
                }
            };
            str_item(s)
        }
        "data" => {
            let items = ev.eval(&args[0], st)?;
            atomize(&items, &st.leases)?
                .into_iter()
                .map(Item::Atomic)
                .collect()
        }
        "node-name" => {
            let items = ev.eval(&args[0], st)?;
            match items.as_slice() {
                [] => Vec::new(),
                [item] => match item.node_name(&st.leases) {
                    Some(q) => vec![Item::Atomic(AtomicValue::QName(q))],
                    None => Vec::new(),
                },
                _ => return Err(Error::type_error("node-name requires at most one node")),
            }
        }
        "name" | "local-name" | "namespace-uri" => {
            let item = if args.is_empty() {
                ctx_item(st)?
            } else {
                let items = ev.eval(&args[0], st)?;
                match items.len() {
                    0 => return Ok(str_item("")),
                    1 => items[0].clone(),
                    _ => return Err(Error::type_error(format!("{name} requires one node"))),
                }
            };
            let q = item.node_name(&st.leases);
            let s = match (name, q) {
                ("name", Some(q)) => q.lexical(),
                ("local-name", Some(q)) => q.local_name().to_string(),
                ("namespace-uri", Some(q)) => q.namespace().unwrap_or("").to_string(),
                _ => String::new(),
            };
            str_item(s)
        }
        "root" => {
            let item = if args.is_empty() {
                ctx_item(st)?
            } else {
                let items = ev.eval(&args[0], st)?;
                match items.len() {
                    0 => return Ok(Vec::new()),
                    1 => items[0].clone(),
                    _ => return Err(Error::type_error("root requires one node")),
                }
            };
            match item.as_node() {
                Some(n) => vec![Item::Node(NodeRef::new(n.doc, xqr_store::NodeId(0)))],
                None => return Err(Error::type_error("root of a non-node")),
            }
        }
        "base-uri" | "document-uri" => {
            let items = if args.is_empty() {
                vec![ctx_item(st)?]
            } else {
                ev.eval(&args[0], st)?
            };
            match items.as_slice() {
                [] => Vec::new(),
                [Item::Node(n)] => match &st.leases.document(n.doc).uri {
                    Some(u) => vec![Item::Atomic(AtomicValue::AnyUri(u.as_str().into()))],
                    None => Vec::new(),
                },
                _ => return Err(Error::type_error(format!("{name} requires one node"))),
            }
        }

        // ---- documents ---------------------------------------------------------
        "doc" | "document" => {
            let Some(uri) = one_string(ev, args, 0, st)? else {
                return Ok(Vec::new());
            };
            vec![Item::Node(ev.resolve_doc(&uri, st)?)]
        }
        "collection" => {
            if args.is_empty() {
                ev.dyn_ctx
                    .default_collection
                    .iter()
                    .map(|n| Item::Node(*n))
                    .collect()
            } else {
                let Some(uri) = one_string(ev, args, 0, st)? else {
                    return Ok(Vec::new());
                };
                vec![Item::Node(ev.resolve_doc(&uri, st)?)]
            }
        }

        // ---- sequences -----------------------------------------------------------
        "empty" => bool_item(ev.eval_limited(&args[0], st, 1)?.is_empty()),
        "exists" => bool_item(!ev.eval_limited(&args[0], st, 1)?.is_empty()),
        "count" => int_item(ev.eval(&args[0], st)?.len() as i64),
        "distinct-values" => {
            let items = ev.eval(&args[0], st)?;
            let vals = atomize(&items, &st.leases)?;
            let mut out: Vec<AtomicValue> = Vec::new();
            'outer: for v in vals {
                // Untyped values compare as strings here.
                let v = match v {
                    AtomicValue::UntypedAtomic(s) => AtomicValue::String(s),
                    other => other,
                };
                for seen in &out {
                    if let Ok(Some(o)) = seen.value_compare(&v, tz) {
                        if o.is_eq() {
                            continue 'outer;
                        }
                    }
                    // NaN equals NaN for distinct-values purposes.
                    if seen.is_nan() && v.is_nan() {
                        continue 'outer;
                    }
                }
                out.push(v);
            }
            out.into_iter().map(Item::Atomic).collect()
        }
        "distinct-nodes" => {
            let items = ev.eval(&args[0], st)?;
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for i in items {
                match i.as_node() {
                    Some(n) => {
                        if seen.insert(n) {
                            out.push(Item::Node(n));
                        }
                    }
                    None => return Err(Error::type_error("distinct-nodes requires nodes")),
                }
            }
            out
        }
        "reverse" => {
            let mut items = ev.eval(&args[0], st)?;
            items.reverse();
            items
        }
        "subsequence" => {
            let items = ev.eval(&args[0], st)?;
            let start = number_arg(ev, args, 1, st)?;
            let len = if args.len() > 2 {
                Some(number_arg(ev, args, 2, st)?)
            } else {
                None
            };
            let start_round = start.round();
            let end = len.map(|l| start_round + l.round());
            items
                .into_iter()
                .enumerate()
                .filter(|(i, _)| {
                    let p = *i as f64 + 1.0;
                    p >= start_round && end.is_none_or(|e| p < e)
                })
                .map(|(_, it)| it)
                .collect()
        }
        "insert-before" => {
            let mut items = ev.eval(&args[0], st)?;
            let pos = integer_arg(ev, args, 1, st)?.max(1) as usize;
            let ins = ev.eval(&args[2], st)?;
            let at = (pos - 1).min(items.len());
            items.splice(at..at, ins);
            items
        }
        "remove" => {
            let items = ev.eval(&args[0], st)?;
            let pos = integer_arg(ev, args, 1, st)?;
            items
                .into_iter()
                .enumerate()
                .filter(|(i, _)| (*i as i64 + 1) != pos)
                .map(|(_, it)| it)
                .collect()
        }
        "index-of" => {
            let items = ev.eval(&args[0], st)?;
            let target_items = ev.eval(&args[1], st)?;
            let Some(target) = atomize_one(&target_items, &st.leases, "index-of")? else {
                return Ok(Vec::new());
            };
            let vals = atomize(&items, &st.leases)?;
            vals.into_iter()
                .enumerate()
                .filter(|(_, v)| {
                    let v = match v {
                        AtomicValue::UntypedAtomic(s) => AtomicValue::String(s.clone()),
                        other => other.clone(),
                    };
                    matches!(v.value_compare(&target, tz), Ok(Some(o)) if o.is_eq())
                })
                .map(|(i, _)| Item::integer(i as i64 + 1))
                .collect()
        }
        "zero-or-one" => {
            let items = ev.eval(&args[0], st)?;
            if items.len() > 1 {
                return Err(Error::new(ErrorCode::Cardinality, "zero-or-one got more"));
            }
            items
        }
        "one-or-more" => {
            let items = ev.eval(&args[0], st)?;
            if items.is_empty() {
                return Err(Error::new(ErrorCode::Cardinality, "one-or-more got empty"));
            }
            items
        }
        "exactly-one" => {
            let items = ev.eval(&args[0], st)?;
            if items.len() != 1 {
                return Err(Error::new(
                    ErrorCode::Cardinality,
                    format!("exactly-one got {}", items.len()),
                ));
            }
            items
        }
        "unordered" => ev.eval(&args[0], st)?,
        "deep-equal" => {
            let a = ev.eval(&args[0], st)?;
            let b = ev.eval(&args[1], st)?;
            bool_item(
                a.len() == b.len()
                    && a.iter()
                        .zip(&b)
                        .all(|(x, y)| deep_equal_item(x, y, &st.leases)),
            )
        }

        // ---- aggregates -------------------------------------------------------------
        "sum" => {
            let items = ev.eval(&args[0], st)?;
            if items.is_empty() {
                if args.len() > 1 {
                    return ev.eval(&args[1], st);
                }
                return Ok(int_item(0));
            }
            let vals = atomize(&items, &st.leases)?;
            vec![Item::Atomic(fold_numeric(vals, "sum")?)]
        }
        "avg" => {
            let items = ev.eval(&args[0], st)?;
            if items.is_empty() {
                return Ok(Vec::new());
            }
            let n = items.len() as i64;
            let vals = atomize(&items, &st.leases)?;
            let total = fold_numeric(vals, "avg")?;
            let r = xqr_compiler::ops::arith(
                xqr_xqparser::ast::ArithOp::Div,
                &total,
                &AtomicValue::Integer(n),
            )?;
            vec![Item::Atomic(r)]
        }
        "min" | "max" => {
            let items = ev.eval(&args[0], st)?;
            if items.is_empty() {
                return Ok(Vec::new());
            }
            let vals = atomize(&items, &st.leases)?;
            let mut best: Option<AtomicValue> = None;
            for v in vals {
                let v = match v {
                    AtomicValue::UntypedAtomic(s) => {
                        AtomicValue::Double(xqr_xdm::parse_double(s.trim())?)
                    }
                    other => other,
                };
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = b.value_compare(&v, tz)?;
                        match ord {
                            Some(o) => {
                                if (name == "min") == o.is_le() {
                                    b
                                } else {
                                    v
                                }
                            }
                            None => b, // NaN: keep first (spec allows NaN result; simplified)
                        }
                    }
                });
            }
            vec![Item::Atomic(best.expect("non-empty"))]
        }

        // ---- booleans -----------------------------------------------------------------
        "not" => bool_item(!ev.eval_ebv(&args[0], st)?),
        "true" => bool_item(true),
        "false" => bool_item(false),
        "boolean" => bool_item(ev.eval_ebv(&args[0], st)?),

        // ---- numerics --------------------------------------------------------------------
        "number" => {
            let v = if args.is_empty() {
                ctx_item(st)?.typed_value(&st.leases)?
            } else {
                let items = ev.eval(&args[0], st)?;
                match atomize_one(&items, &st.leases, "number")? {
                    Some(v) => v,
                    None => return Ok(vec![Item::Atomic(AtomicValue::Double(f64::NAN))]),
                }
            };
            // fn:number casts (strings parse as doubles); failures → NaN.
            let d = match v.cast_to(AtomicType::Double) {
                Ok(AtomicValue::Double(d)) => d,
                _ => f64::NAN,
            };
            vec![Item::Atomic(AtomicValue::Double(d))]
        }
        "abs" | "ceiling" | "floor" | "round" => {
            let items = ev.eval(&args[0], st)?;
            let Some(v) = atomize_one(&items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            vec![Item::Atomic(unary_numeric(name, &v)?)]
        }
        "round-half-to-even" => {
            let items = ev.eval(&args[0], st)?;
            let Some(v) = atomize_one(&items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            let precision = if args.len() > 1 {
                integer_arg(ev, args, 1, st)?
            } else {
                0
            };
            let r = match v {
                AtomicValue::Integer(_) if precision >= 0 => v,
                AtomicValue::Integer(i) => {
                    AtomicValue::Decimal(Decimal::from_i64(i).round_half_even(precision))
                }
                AtomicValue::Decimal(d) => AtomicValue::Decimal(d.round_half_even(precision)),
                AtomicValue::Double(d) => {
                    let factor = 10f64.powi(precision as i32);
                    let scaled = d * factor;
                    let r = scaled.round_ties_even();
                    AtomicValue::Double(r / factor)
                }
                AtomicValue::Float(f) => {
                    let factor = 10f32.powi(precision as i32);
                    AtomicValue::Float((f * factor).round_ties_even() / factor)
                }
                other => {
                    return Err(Error::type_error(format!(
                        "round-half-to-even on {}",
                        other.type_of().name()
                    )))
                }
            };
            vec![Item::Atomic(r)]
        }

        // ---- strings --------------------------------------------------------------------------
        "concat" => {
            let mut s = String::new();
            for a in args {
                let items = ev.eval(a, st)?;
                if let Some(v) = atomize_one(&items, &st.leases, "concat")? {
                    s.push_str(&v.string_value());
                }
            }
            str_item(s)
        }
        "string-join" => {
            let items = ev.eval(&args[0], st)?;
            let sep = string_or_empty(ev, args, 1, st)?;
            let vals = atomize(&items, &st.leases)?;
            str_item(
                vals.iter()
                    .map(|v| v.string_value())
                    .collect::<Vec<_>>()
                    .join(&sep),
            )
        }
        "string-length" => {
            let s = if args.is_empty() {
                ctx_item(st)?.string_value(&st.leases)
            } else {
                string_or_empty(ev, args, 0, st)?
            };
            int_item(s.chars().count() as i64)
        }
        "substring" => {
            let s = string_or_empty(ev, args, 0, st)?;
            let chars: Vec<char> = s.chars().collect();
            let start = number_arg(ev, args, 1, st)?.round();
            let len = if args.len() > 2 {
                Some(number_arg(ev, args, 2, st)?.round())
            } else {
                None
            };
            let out: String = chars
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let p = *i as f64 + 1.0;
                    p >= start && len.is_none_or(|l| p < start + l)
                })
                .map(|(_, c)| *c)
                .collect();
            str_item(out)
        }
        "upper-case" => str_item(string_or_empty(ev, args, 0, st)?.to_uppercase()),
        "lower-case" => str_item(string_or_empty(ev, args, 0, st)?.to_lowercase()),
        "contains" => {
            let a = string_or_empty(ev, args, 0, st)?;
            let b = string_or_empty(ev, args, 1, st)?;
            bool_item(a.contains(&b))
        }
        "starts-with" => {
            let a = string_or_empty(ev, args, 0, st)?;
            let b = string_or_empty(ev, args, 1, st)?;
            bool_item(a.starts_with(&b))
        }
        "ends-with" => {
            let a = string_or_empty(ev, args, 0, st)?;
            let b = string_or_empty(ev, args, 1, st)?;
            bool_item(a.ends_with(&b))
        }
        "substring-before" => {
            let a = string_or_empty(ev, args, 0, st)?;
            let b = string_or_empty(ev, args, 1, st)?;
            str_item(a.find(&b).map(|i| a[..i].to_string()).unwrap_or_default())
        }
        "substring-after" => {
            let a = string_or_empty(ev, args, 0, st)?;
            let b = string_or_empty(ev, args, 1, st)?;
            str_item(
                a.find(&b)
                    .map(|i| a[i + b.len()..].to_string())
                    .unwrap_or_default(),
            )
        }
        "normalize-space" => {
            let s = if args.is_empty() {
                ctx_item(st)?.string_value(&st.leases)
            } else {
                string_or_empty(ev, args, 0, st)?
            };
            str_item(s.split_whitespace().collect::<Vec<_>>().join(" "))
        }
        "translate" => {
            let s = string_or_empty(ev, args, 0, st)?;
            let from: Vec<char> = string_or_empty(ev, args, 1, st)?.chars().collect();
            let to: Vec<char> = string_or_empty(ev, args, 2, st)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            str_item(out)
        }
        "matches" => {
            let s = string_or_empty(ev, args, 0, st)?;
            let pattern = string_or_empty(ev, args, 1, st)?;
            bool_item(Regex::new(&pattern)?.is_match(&s))
        }
        "tokenize" => {
            let s = string_or_empty(ev, args, 0, st)?;
            let pattern = string_or_empty(ev, args, 1, st)?;
            let re = Regex::new(&pattern)?;
            if s.is_empty() {
                return Ok(Vec::new());
            }
            re.split(&s).into_iter().map(|t| Item::string(&t)).collect()
        }
        "replace" => {
            let s = string_or_empty(ev, args, 0, st)?;
            let pattern = string_or_empty(ev, args, 1, st)?;
            let replacement = string_or_empty(ev, args, 2, st)?;
            let re = Regex::new(&pattern)?;
            str_item(re.replace_all(&s, &replacement))
        }
        "string-to-codepoints" => {
            let s = string_or_empty(ev, args, 0, st)?;
            s.chars().map(|c| Item::integer(c as i64)).collect()
        }
        "codepoints-to-string" => {
            let items = ev.eval(&args[0], st)?;
            let vals = atomize(&items, &st.leases)?;
            let mut s = String::new();
            for v in vals {
                match v.cast_to(AtomicType::Integer)? {
                    AtomicValue::Integer(i) => {
                        let c = u32::try_from(i)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| Error::value("invalid codepoint"))?;
                        s.push(c);
                    }
                    _ => unreachable!("cast to integer"),
                }
            }
            str_item(s)
        }
        "compare" => {
            let a = one_string(ev, args, 0, st)?;
            let b = one_string(ev, args, 1, st)?;
            match (a, b) {
                (Some(a), Some(b)) => int_item(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }),
                _ => Vec::new(),
            }
        }

        // ---- dates -----------------------------------------------------------------------------
        "current-dateTime" => vec![Item::Atomic(AtomicValue::DateTime(
            ev.dyn_ctx.current_datetime,
        ))],
        "current-date" => {
            vec![Item::Atomic(AtomicValue::Date(
                ev.dyn_ctx.current_datetime.date(),
            ))]
        }
        "current-time" => {
            vec![Item::Atomic(AtomicValue::Time(
                ev.dyn_ctx.current_datetime.time(),
            ))]
        }
        "implicit-timezone" => {
            vec![Item::Atomic(AtomicValue::DayTimeDuration(
                Duration::from_millis(ev.dyn_ctx.implicit_timezone as i64 * 60_000),
            ))]
        }
        "year-from-date" | "month-from-date" | "day-from-date" => {
            let items = ev.eval(&args[0], st)?;
            let Some(v) = atomize_one(&items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            let d = match v.cast_to(AtomicType::Date)? {
                AtomicValue::Date(d) => d,
                _ => unreachable!("cast to date"),
            };
            int_item(match name {
                "year-from-date" => d.year as i64,
                "month-from-date" => d.month as i64,
                _ => d.day as i64,
            })
        }
        "year-from-dateTime"
        | "month-from-dateTime"
        | "day-from-dateTime"
        | "hours-from-dateTime"
        | "minutes-from-dateTime"
        | "seconds-from-dateTime" => {
            let items = ev.eval(&args[0], st)?;
            let Some(v) = atomize_one(&items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            let dt = match v.cast_to(AtomicType::DateTime)? {
                AtomicValue::DateTime(d) => d,
                _ => unreachable!("cast to dateTime"),
            };
            match name {
                "seconds-from-dateTime" => {
                    let millis = dt.second as i64 * 1000 + dt.millis as i64;
                    vec![Item::Atomic(AtomicValue::Decimal(
                        Decimal::from_parts(millis as i128, 3).expect("small scale"),
                    ))]
                }
                _ => int_item(match name {
                    "year-from-dateTime" => dt.year as i64,
                    "month-from-dateTime" => dt.month as i64,
                    "day-from-dateTime" => dt.day as i64,
                    "hours-from-dateTime" => dt.hour as i64,
                    _ => dt.minute as i64,
                }),
            }
        }
        "add-date" => {
            // The talk's F&O sampler: add-date(date, duration) → date.
            let items = ev.eval(&args[0], st)?;
            let Some(v) = atomize_one(&items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            let d = match v.cast_to(AtomicType::Date)? {
                AtomicValue::Date(d) => d,
                _ => unreachable!("cast to date"),
            };
            let dur_items = ev.eval(&args[1], st)?;
            let Some(dv) = atomize_one(&dur_items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            let dur = match dv {
                AtomicValue::Duration(d)
                | AtomicValue::YearMonthDuration(d)
                | AtomicValue::DayTimeDuration(d) => d,
                AtomicValue::UntypedAtomic(s) => Duration::parse(s.trim())?,
                other => {
                    return Err(Error::type_error(format!(
                        "add-date needs a duration, got {}",
                        other.type_of().name()
                    )))
                }
            };
            vec![Item::Atomic(AtomicValue::Date(d.add_duration(dur)?))]
        }

        "years-from-duration"
        | "months-from-duration"
        | "days-from-duration"
        | "hours-from-duration"
        | "minutes-from-duration"
        | "seconds-from-duration" => {
            let items = ev.eval(&args[0], st)?;
            let Some(v) = atomize_one(&items, &st.leases, name)? else {
                return Ok(Vec::new());
            };
            let d = match v {
                AtomicValue::Duration(d)
                | AtomicValue::YearMonthDuration(d)
                | AtomicValue::DayTimeDuration(d) => d,
                AtomicValue::UntypedAtomic(s) => Duration::parse(s.trim())?,
                other => {
                    return Err(Error::type_error(format!(
                        "{name} needs a duration, got {}",
                        other.type_of().name()
                    )))
                }
            };
            // Components carry the duration's sign, per F&O.
            match name {
                "years-from-duration" => int_item(d.months / 12),
                "months-from-duration" => int_item(d.months % 12),
                "days-from-duration" => int_item(d.millis / 86_400_000),
                "hours-from-duration" => int_item((d.millis % 86_400_000) / 3_600_000),
                "minutes-from-duration" => int_item((d.millis % 3_600_000) / 60_000),
                _ => vec![Item::Atomic(AtomicValue::Decimal(
                    Decimal::from_parts((d.millis % 60_000) as i128, 3).expect("scale 3"),
                ))],
            }
        }

        // ---- errors & debugging ----------------------------------------------------------------
        "error" => {
            let msg = if args.len() > 1 {
                string_or_empty(ev, args, 1, st)?
            } else if !args.is_empty() {
                string_or_empty(ev, args, 0, st)?
            } else {
                "fn:error() called".to_string()
            };
            return Err(Error::new(ErrorCode::UserError, msg));
        }
        "trace" => {
            let items = ev.eval(&args[0], st)?;
            let _label = string_or_empty(ev, args, 1, st)?;
            items // label deliberately not printed (deterministic tests)
        }

        other => {
            return Err(Error::new(
                ErrorCode::UndefinedFunction,
                format!("builtin {other:?} not implemented"),
            ))
        }
    })
}

fn number_arg(ev: &Evaluator<'_>, args: &[Core], idx: usize, st: &mut ExecState) -> Result<f64> {
    let items = ev.eval(&args[idx], st)?;
    let Some(v) = atomize_one(&items, &st.leases, "numeric argument")? else {
        return Err(Error::type_error("numeric argument is empty"));
    };
    v.to_double()
}

fn integer_arg(ev: &Evaluator<'_>, args: &[Core], idx: usize, st: &mut ExecState) -> Result<i64> {
    Ok(number_arg(ev, args, idx, st)? as i64)
}

fn fold_numeric(vals: Vec<AtomicValue>, what: &str) -> Result<AtomicValue> {
    let mut acc: Option<AtomicValue> = None;
    for v in vals {
        acc = Some(match acc {
            None => match v {
                AtomicValue::UntypedAtomic(_) => xqr_compiler::ops::arith(
                    xqr_xqparser::ast::ArithOp::Add,
                    &AtomicValue::Double(0.0),
                    &v,
                )?,
                other => other,
            },
            Some(a) => xqr_compiler::ops::arith(xqr_xqparser::ast::ArithOp::Add, &a, &v)
                .map_err(|e| Error::type_error(format!("{what}: {}", e.message)))?,
        });
    }
    acc.ok_or_else(|| Error::internal("fold of empty sequence"))
}

fn unary_numeric(name: &str, v: &AtomicValue) -> Result<AtomicValue> {
    use AtomicValue as V;
    let v = match v {
        V::UntypedAtomic(s) => V::Double(xqr_xdm::parse_double(s.trim())?),
        other => other.clone(),
    };
    Ok(match (name, &v) {
        ("abs", V::Integer(i)) => V::Integer(i.abs()),
        ("abs", V::Decimal(d)) => V::Decimal(d.abs()),
        ("abs", V::Double(d)) => V::Double(d.abs()),
        ("abs", V::Float(f)) => V::Float(f.abs()),
        ("ceiling", V::Integer(_)) | ("floor", V::Integer(_)) | ("round", V::Integer(_)) => v,
        ("ceiling", V::Decimal(d)) => V::Decimal(d.ceiling()),
        ("floor", V::Decimal(d)) => V::Decimal(d.floor()),
        ("round", V::Decimal(d)) => V::Decimal(d.round()),
        ("ceiling", V::Double(d)) => V::Double(d.ceil()),
        ("floor", V::Double(d)) => V::Double(d.floor()),
        ("round", V::Double(d)) => V::Double((d + 0.5).floor()),
        ("ceiling", V::Float(f)) => V::Float(f.ceil()),
        ("floor", V::Float(f)) => V::Float(f.floor()),
        ("round", V::Float(f)) => V::Float((f + 0.5).floor()),
        _ => {
            return Err(Error::type_error(format!(
                "{name} on non-numeric {}",
                v.type_of().name()
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use xqr_compiler::builtins::BUILTINS;

    /// Every declared builtin must be dispatchable (compile-time list ↔
    /// runtime implementation sync check). We can't easily invoke each
    /// one here without a full engine, so we check the dispatch arm
    /// exists by name via a curated list mirrored from `dispatch`.
    #[test]
    fn all_builtins_have_implementations() {
        let implemented = [
            "position",
            "last",
            "string",
            "data",
            "node-name",
            "name",
            "local-name",
            "namespace-uri",
            "root",
            "base-uri",
            "document-uri",
            "doc",
            "document",
            "collection",
            "empty",
            "exists",
            "count",
            "distinct-values",
            "distinct-nodes",
            "reverse",
            "subsequence",
            "insert-before",
            "remove",
            "index-of",
            "zero-or-one",
            "one-or-more",
            "exactly-one",
            "unordered",
            "deep-equal",
            "sum",
            "avg",
            "min",
            "max",
            "not",
            "true",
            "false",
            "boolean",
            "number",
            "abs",
            "ceiling",
            "floor",
            "round",
            "round-half-to-even",
            "concat",
            "string-join",
            "string-length",
            "substring",
            "upper-case",
            "lower-case",
            "contains",
            "starts-with",
            "ends-with",
            "substring-before",
            "substring-after",
            "normalize-space",
            "translate",
            "tokenize",
            "matches",
            "replace",
            "string-to-codepoints",
            "codepoints-to-string",
            "compare",
            "current-dateTime",
            "current-date",
            "current-time",
            "implicit-timezone",
            "year-from-date",
            "month-from-date",
            "day-from-date",
            "year-from-dateTime",
            "month-from-dateTime",
            "day-from-dateTime",
            "hours-from-dateTime",
            "minutes-from-dateTime",
            "seconds-from-dateTime",
            "add-date",
            "years-from-duration",
            "months-from-duration",
            "days-from-duration",
            "hours-from-duration",
            "minutes-from-duration",
            "seconds-from-duration",
            "error",
            "trace",
        ];
        for (name, _, _) in BUILTINS {
            assert!(
                implemented.contains(name),
                "builtin {name} declared but not implemented"
            );
        }
    }
}
