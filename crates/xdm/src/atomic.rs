//! Atomic values: the 19 XML Schema primitive types plus
//! `xdt:untypedAtomic` and `xs:integer`, with the lexical parsing, casting
//! matrix, numeric promotion and value-comparison semantics the talk's
//! operator slides specify.
//!
//! Key talk-derived behaviours implemented here:
//! * atomic values "carry their type together with the value" —
//!   `(8, myNS:ShoeSize)` ≠ `(8, xs:integer)` is modelled by the
//!   typed-value wrapper keeping the [`AtomicType`];
//! * untyped operands cast to `xs:double` for arithmetic but to the other
//!   operand's type for general comparisons (handled in the runtime, using
//!   [`AtomicValue::cast_to`]);
//! * value comparison promotes `integer → decimal → float → double`.

use crate::datetime::{Date, DateTime, Duration, Gregorian, GregorianKind, Time, TzOffset};
use crate::decimal::Decimal;
use crate::error::{Error, ErrorCode, Result};
use crate::qname::QName;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The atomic type lattice. `AnyAtomic` is the top; `UntypedAtomic` is the
/// type of non-validated content; `Integer` is the one derived numeric we
/// track natively (everything the talk's examples need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicType {
    AnyAtomic,
    UntypedAtomic,
    String,
    Boolean,
    Decimal,
    Integer,
    Float,
    Double,
    QName,
    AnyUri,
    Date,
    Time,
    DateTime,
    Duration,
    YearMonthDuration,
    DayTimeDuration,
    GYear,
    GYearMonth,
    GMonth,
    GMonthDay,
    GDay,
    HexBinary,
    Base64Binary,
    Notation,
}

impl AtomicType {
    /// `xs:`/`xdt:` qualified name used in error messages and `instance of`.
    pub fn name(self) -> &'static str {
        use AtomicType::*;
        match self {
            AnyAtomic => "xdt:anyAtomicType",
            UntypedAtomic => "xdt:untypedAtomic",
            String => "xs:string",
            Boolean => "xs:boolean",
            Decimal => "xs:decimal",
            Integer => "xs:integer",
            Float => "xs:float",
            Double => "xs:double",
            QName => "xs:QName",
            AnyUri => "xs:anyURI",
            Date => "xs:date",
            Time => "xs:time",
            DateTime => "xs:dateTime",
            Duration => "xs:duration",
            YearMonthDuration => "xdt:yearMonthDuration",
            DayTimeDuration => "xdt:dayTimeDuration",
            GYear => "xs:gYear",
            GYearMonth => "xs:gYearMonth",
            GMonth => "xs:gMonth",
            GMonthDay => "xs:gMonthDay",
            GDay => "xs:gDay",
            HexBinary => "xs:hexBinary",
            Base64Binary => "xs:base64Binary",
            Notation => "xs:NOTATION",
        }
    }

    /// Resolve a lexical type name (with `xs:`/`xsd:`/`xdt:` prefix or
    /// without) to a type, for `cast as` and constructor functions.
    pub fn from_name(name: &str) -> Option<AtomicType> {
        let local = name
            .strip_prefix("xs:")
            .or_else(|| name.strip_prefix("xsd:"))
            .or_else(|| name.strip_prefix("xdt:"))
            .unwrap_or(name);
        use AtomicType::*;
        Some(match local {
            "anyAtomicType" => AnyAtomic,
            "untypedAtomic" => UntypedAtomic,
            "string" => String,
            "boolean" => Boolean,
            "decimal" => Decimal,
            "integer" | "long" | "int" | "short" | "byte" | "nonNegativeInteger"
            | "positiveInteger" | "nonPositiveInteger" | "negativeInteger" | "unsignedLong"
            | "unsignedInt" | "unsignedShort" | "unsignedByte" => Integer,
            "float" => Float,
            "double" => Double,
            "QName" => QName,
            "anyURI" => AnyUri,
            "date" => Date,
            "time" => Time,
            "dateTime" => DateTime,
            "duration" => Duration,
            "yearMonthDuration" => YearMonthDuration,
            "dayTimeDuration" => DayTimeDuration,
            "gYear" => GYear,
            "gYearMonth" => GYearMonth,
            "gMonth" => GMonth,
            "gMonthDay" => GMonthDay,
            "gDay" => GDay,
            "hexBinary" => HexBinary,
            "base64Binary" => Base64Binary,
            "NOTATION" => Notation,
            "normalizedString" | "token" | "language" | "NMTOKEN" | "Name" | "NCName" | "ID"
            | "IDREF" | "ENTITY" => String,
            _ => return None,
        })
    }

    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            AtomicType::Decimal | AtomicType::Integer | AtomicType::Float | AtomicType::Double
        )
    }

    /// Derived-type subsumption within our lattice.
    pub fn is_subtype_of(self, other: AtomicType) -> bool {
        use AtomicType::*;
        if self == other || other == AnyAtomic {
            return true;
        }
        matches!(
            (self, other),
            (Integer, Decimal) | (YearMonthDuration, Duration) | (DayTimeDuration, Duration)
        )
    }
}

impl fmt::Display for AtomicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An atomic value. String-ish variants share their backing buffer via
/// `Arc<str>` so duplication through sequences is cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum AtomicValue {
    UntypedAtomic(Arc<str>),
    String(Arc<str>),
    Boolean(bool),
    Decimal(Decimal),
    Integer(i64),
    Float(f32),
    Double(f64),
    QName(QName),
    AnyUri(Arc<str>),
    Date(Date),
    Time(Time),
    DateTime(DateTime),
    Duration(Duration),
    YearMonthDuration(Duration),
    DayTimeDuration(Duration),
    Gregorian(Gregorian),
    HexBinary(Arc<[u8]>),
    Base64Binary(Arc<[u8]>),
    Notation(QName),
}

impl AtomicValue {
    pub fn untyped(s: impl Into<Arc<str>>) -> Self {
        AtomicValue::UntypedAtomic(s.into())
    }

    pub fn string(s: impl Into<Arc<str>>) -> Self {
        AtomicValue::String(s.into())
    }

    pub fn type_of(&self) -> AtomicType {
        use AtomicValue::*;
        match self {
            UntypedAtomic(_) => AtomicType::UntypedAtomic,
            String(_) => AtomicType::String,
            Boolean(_) => AtomicType::Boolean,
            Decimal(_) => AtomicType::Decimal,
            Integer(_) => AtomicType::Integer,
            Float(_) => AtomicType::Float,
            Double(_) => AtomicType::Double,
            QName(_) => AtomicType::QName,
            AnyUri(_) => AtomicType::AnyUri,
            Date(_) => AtomicType::Date,
            Time(_) => AtomicType::Time,
            DateTime(_) => AtomicType::DateTime,
            Duration(_) => AtomicType::Duration,
            YearMonthDuration(_) => AtomicType::YearMonthDuration,
            DayTimeDuration(_) => AtomicType::DayTimeDuration,
            Gregorian(g) => match g.kind {
                GregorianKind::Year => AtomicType::GYear,
                GregorianKind::YearMonth => AtomicType::GYearMonth,
                GregorianKind::Month => AtomicType::GMonth,
                GregorianKind::MonthDay => AtomicType::GMonthDay,
                GregorianKind::Day => AtomicType::GDay,
            },
            HexBinary(_) => AtomicType::HexBinary,
            Base64Binary(_) => AtomicType::Base64Binary,
            Notation(_) => AtomicType::Notation,
        }
    }

    pub fn is_numeric(&self) -> bool {
        self.type_of().is_numeric()
    }

    pub fn is_nan(&self) -> bool {
        match self {
            AtomicValue::Double(d) => d.is_nan(),
            AtomicValue::Float(f) => f.is_nan(),
            _ => false,
        }
    }

    /// The canonical string value (`fn:string`).
    pub fn string_value(&self) -> String {
        use AtomicValue::*;
        match self {
            UntypedAtomic(s) | String(s) | AnyUri(s) => s.to_string(),
            Boolean(b) => b.to_string(),
            Decimal(d) => d.to_string(),
            Integer(i) => i.to_string(),
            Float(v) => fmt_float(*v as f64, true),
            Double(v) => fmt_float(*v, false),
            QName(q) => q.lexical(),
            Date(d) => d.to_string(),
            Time(t) => t.to_string(),
            DateTime(dt) => dt.to_string(),
            Duration(d) | YearMonthDuration(d) | DayTimeDuration(d) => d.to_string(),
            Gregorian(g) => g.to_string(),
            HexBinary(b) => hex_encode(b),
            Base64Binary(b) => base64_encode(b),
            Notation(q) => q.lexical(),
        }
    }

    /// Parse a lexical form into a value of `ty` (the XML Schema
    /// constructor). Whitespace is collapsed per the whiteSpace facet.
    pub fn parse_as(lexical: &str, ty: AtomicType) -> Result<AtomicValue> {
        let s = lexical.trim();
        use AtomicType as T;
        use AtomicValue as V;
        Ok(match ty {
            T::AnyAtomic | T::UntypedAtomic => V::untyped(lexical),
            T::String => V::string(lexical),
            T::Boolean => match s {
                "true" | "1" => V::Boolean(true),
                "false" | "0" => V::Boolean(false),
                _ => return Err(Error::value(format!("invalid xs:boolean: {s:?}"))),
            },
            T::Decimal => V::Decimal(Decimal::parse(s)?),
            T::Integer => V::Integer(parse_integer(s)?),
            T::Float => V::Float(parse_double(s)? as f32),
            T::Double => V::Double(parse_double(s)?),
            T::QName => {
                // Callers that know the in-scope namespaces resolve the
                // prefix before constructing; here we accept NCName or
                // prefixed form without resolution.
                if s.is_empty()
                    || s.split(':').count() > 2
                    || s.starts_with(':')
                    || s.ends_with(':')
                {
                    return Err(Error::new(
                        ErrorCode::InvalidQName,
                        format!("invalid QName: {s:?}"),
                    ));
                }
                match s.split_once(':') {
                    Some((p, l)) => V::QName(crate::qname::QName::prefixed("", p, l)),
                    None => V::QName(crate::qname::QName::local(s)),
                }
            }
            T::AnyUri => V::AnyUri(Arc::from(s)),
            T::Date => V::Date(Date::parse(s)?),
            T::Time => V::Time(Time::parse(s)?),
            T::DateTime => V::DateTime(DateTime::parse(s)?),
            T::Duration => V::Duration(Duration::parse(s)?),
            T::YearMonthDuration => {
                let d = Duration::parse(s)?;
                if !d.is_year_month() {
                    return Err(Error::value(
                        "yearMonthDuration cannot carry day/time fields",
                    ));
                }
                V::YearMonthDuration(d)
            }
            T::DayTimeDuration => {
                let d = Duration::parse(s)?;
                if !d.is_day_time() {
                    return Err(Error::value(
                        "dayTimeDuration cannot carry year/month fields",
                    ));
                }
                V::DayTimeDuration(d)
            }
            T::GYear => V::Gregorian(Gregorian::parse(GregorianKind::Year, s)?),
            T::GYearMonth => V::Gregorian(Gregorian::parse(GregorianKind::YearMonth, s)?),
            T::GMonth => V::Gregorian(Gregorian::parse(GregorianKind::Month, s)?),
            T::GMonthDay => V::Gregorian(Gregorian::parse(GregorianKind::MonthDay, s)?),
            T::GDay => V::Gregorian(Gregorian::parse(GregorianKind::Day, s)?),
            T::HexBinary => V::HexBinary(hex_decode(s)?.into()),
            T::Base64Binary => V::Base64Binary(base64_decode(s)?.into()),
            T::Notation => {
                return Err(Error::type_error(
                    "cannot construct xs:NOTATION from a string",
                ))
            }
        })
    }

    /// The `cast as` matrix. Untyped casts like a lexical form; same-type
    /// casts are identity; numeric↔numeric convert; most types cast
    /// to/from string; cross-family casts are type errors.
    pub fn cast_to(&self, ty: AtomicType) -> Result<AtomicValue> {
        use AtomicType as T;
        use AtomicValue as V;
        if self.type_of() == ty {
            return Ok(self.clone());
        }
        match (self, ty) {
            // To string-family: via canonical lexical form.
            (_, T::String) => Ok(V::string(self.string_value())),
            (_, T::UntypedAtomic) => Ok(V::untyped(self.string_value())),
            (V::String(_) | V::UntypedAtomic(_), _) => Self::parse_as(&self.string_value(), ty),
            (V::AnyUri(s), T::AnyUri) => Ok(V::AnyUri(s.clone())),

            // Numeric conversions.
            (V::Integer(i), T::Decimal) => Ok(V::Decimal(Decimal::from_i64(*i))),
            (V::Integer(i), T::Double) => Ok(V::Double(*i as f64)),
            (V::Integer(i), T::Float) => Ok(V::Float(*i as f32)),
            (V::Integer(i), T::Boolean) => Ok(V::Boolean(*i != 0)),
            (V::Decimal(d), T::Integer) => {
                let t = d.trunc_to_i128();
                i64::try_from(t)
                    .map(V::Integer)
                    .map_err(|_| Error::new(ErrorCode::Overflow, "integer overflow in cast"))
            }
            (V::Decimal(d), T::Double) => Ok(V::Double(d.to_f64())),
            (V::Decimal(d), T::Float) => Ok(V::Float(d.to_f64() as f32)),
            (V::Decimal(d), T::Boolean) => Ok(V::Boolean(!d.is_zero())),
            (V::Double(v), T::Integer) => double_to_integer(*v),
            (V::Double(v), T::Decimal) => Ok(V::Decimal(Decimal::from_f64(*v)?)),
            (V::Double(v), T::Float) => Ok(V::Float(*v as f32)),
            (V::Double(v), T::Boolean) => Ok(V::Boolean(!(v.is_nan() || *v == 0.0))),
            (V::Float(v), T::Integer) => double_to_integer(*v as f64),
            (V::Float(v), T::Decimal) => Ok(V::Decimal(Decimal::from_f64(*v as f64)?)),
            (V::Float(v), T::Double) => Ok(V::Double(*v as f64)),
            (V::Float(v), T::Boolean) => Ok(V::Boolean(!(v.is_nan() || *v == 0.0))),
            (V::Boolean(b), T::Integer) => Ok(V::Integer(*b as i64)),
            (V::Boolean(b), T::Decimal) => Ok(V::Decimal(Decimal::from_i64(*b as i64))),
            (V::Boolean(b), T::Double) => Ok(V::Double(*b as i64 as f64)),
            (V::Boolean(b), T::Float) => Ok(V::Float(*b as i64 as f32)),

            // Date/time family.
            (V::DateTime(dt), T::Date) => Ok(V::Date(dt.date())),
            (V::DateTime(dt), T::Time) => Ok(V::Time(dt.time())),
            (V::Date(d), T::DateTime) => Ok(V::DateTime(d.to_datetime())),
            (V::DateTime(dt), T::GYear) => Ok(V::Gregorian(Gregorian {
                kind: GregorianKind::Year,
                year: dt.year,
                month: 1,
                day: 1,
                tz: dt.tz,
            })),
            (V::Date(d), T::GYear) => Ok(V::Gregorian(Gregorian {
                kind: GregorianKind::Year,
                year: d.year,
                month: 1,
                day: 1,
                tz: d.tz,
            })),
            (V::Date(d), T::GYearMonth) => Ok(V::Gregorian(Gregorian {
                kind: GregorianKind::YearMonth,
                year: d.year,
                month: d.month,
                day: 1,
                tz: d.tz,
            })),
            (V::Date(d), T::GMonthDay) => Ok(V::Gregorian(Gregorian {
                kind: GregorianKind::MonthDay,
                year: 1,
                month: d.month,
                day: d.day,
                tz: d.tz,
            })),
            (V::Date(d), T::GMonth) => Ok(V::Gregorian(Gregorian {
                kind: GregorianKind::Month,
                year: 1,
                month: d.month,
                day: 1,
                tz: d.tz,
            })),
            (V::Date(d), T::GDay) => Ok(V::Gregorian(Gregorian {
                kind: GregorianKind::Day,
                year: 1,
                month: 1,
                day: d.day,
                tz: d.tz,
            })),

            // Duration family.
            (V::Duration(d), T::YearMonthDuration) => {
                Ok(V::YearMonthDuration(Duration::from_months(d.months)))
            }
            (V::Duration(d), T::DayTimeDuration) => {
                Ok(V::DayTimeDuration(Duration::from_millis(d.millis)))
            }
            (V::YearMonthDuration(d) | V::DayTimeDuration(d), T::Duration) => Ok(V::Duration(*d)),
            // Casting between duration subtypes keeps only the target
            // component, which is zero by the subtype invariant.
            (V::YearMonthDuration(_), T::DayTimeDuration) => Ok(V::DayTimeDuration(Duration::ZERO)),
            (V::DayTimeDuration(_), T::YearMonthDuration) => {
                Ok(V::YearMonthDuration(Duration::ZERO))
            }

            // Binary family.
            (V::HexBinary(b), T::Base64Binary) => Ok(V::Base64Binary(b.clone())),
            (V::Base64Binary(b), T::HexBinary) => Ok(V::HexBinary(b.clone())),

            (V::QName(q), T::Notation) => Ok(V::Notation(q.clone())),

            _ => Err(Error::type_error(format!(
                "cannot cast {} to {}",
                self.type_of().name(),
                ty.name()
            ))),
        }
    }

    /// Can `cast_to` succeed? (`castable as`).
    pub fn castable_to(&self, ty: AtomicType) -> bool {
        self.cast_to(ty).is_ok()
    }

    /// Value comparison (`eq`,`lt`,...): both operands must be comparable
    /// types after promotion; returns the ordering, or an error for
    /// incomparable types. NaN returns `None`.
    pub fn value_compare(
        &self,
        other: &AtomicValue,
        implicit_tz: TzOffset,
    ) -> Result<Option<Ordering>> {
        use AtomicValue as V;
        // Untyped operands compare as strings in value comparisons — this
        // is why the talk's slide has `<a>42</a> eq 42` raising an error:
        // a string is not comparable with an integer.
        let a = self.untyped_as_string();
        let b = other.untyped_as_string();
        match (&a, &b) {
            (V::String(x) | V::AnyUri(x), V::String(y) | V::AnyUri(y)) => {
                Ok(Some(x.as_bytes().cmp(y.as_bytes())))
            }
            (V::Boolean(x), V::Boolean(y)) => Ok(Some(x.cmp(y))),
            _ if a.is_numeric() && b.is_numeric() => numeric_compare(&a, &b),
            (V::Date(x), V::Date(y)) => Ok(Some(x.compare(y, implicit_tz))),
            (V::Time(x), V::Time(y)) => Ok(Some(x.compare(y, implicit_tz))),
            (V::DateTime(x), V::DateTime(y)) => Ok(Some(x.compare(y, implicit_tz))),
            (
                V::Duration(x) | V::YearMonthDuration(x) | V::DayTimeDuration(x),
                V::Duration(y) | V::YearMonthDuration(y) | V::DayTimeDuration(y),
            ) => {
                // Total order only within one duration subtype; mixed
                // durations are equal iff both components match.
                if x.is_year_month() && y.is_year_month() {
                    Ok(Some(x.months.cmp(&y.months)))
                } else if x.is_day_time() && y.is_day_time() {
                    Ok(Some(x.millis.cmp(&y.millis)))
                } else if x == y {
                    Ok(Some(Ordering::Equal))
                } else {
                    Err(Error::type_error("mixed durations support only equality"))
                }
            }
            (V::QName(x), V::QName(y)) | (V::Notation(x), V::Notation(y)) => {
                if x == y {
                    Ok(Some(Ordering::Equal))
                } else {
                    // QNames support eq/ne only; report inequality via a
                    // non-Equal ordering on the clark form (stable).
                    Ok(Some(x.clark().cmp(&y.clark())))
                }
            }
            (V::HexBinary(x), V::HexBinary(y)) | (V::Base64Binary(x), V::Base64Binary(y)) => {
                Ok(Some(x.cmp(y)))
            }
            (V::Gregorian(x), V::Gregorian(y)) if x.kind == y.kind => Ok(Some(
                (x.year, x.month, x.day).cmp(&(y.year, y.month, y.day)),
            )),
            _ => Err(Error::type_error(format!(
                "cannot compare {} with {}",
                self.type_of().name(),
                other.type_of().name()
            ))),
        }
    }

    fn untyped_as_string(&self) -> AtomicValue {
        match self {
            AtomicValue::UntypedAtomic(s) => AtomicValue::String(s.clone()),
            other => other.clone(),
        }
    }

    /// The effective boolean value of this single atomic item.
    pub fn effective_boolean_value(&self) -> Result<bool> {
        use AtomicValue::*;
        Ok(match self {
            Boolean(b) => *b,
            String(s) | UntypedAtomic(s) | AnyUri(s) => !s.is_empty(),
            Integer(i) => *i != 0,
            Decimal(d) => !d.is_zero(),
            Double(v) => !(v.is_nan() || *v == 0.0),
            Float(v) => !(v.is_nan() || *v == 0.0),
            _ => {
                return Err(Error::new(
                    ErrorCode::InvalidArgument,
                    format!("no effective boolean value for {}", self.type_of().name()),
                ))
            }
        })
    }

    /// Promote to double (used for arithmetic on untyped data per the
    /// talk: "if an operand is untyped, cast to xs:double").
    pub fn to_double(&self) -> Result<f64> {
        use AtomicValue::*;
        match self {
            Integer(i) => Ok(*i as f64),
            Decimal(d) => Ok(d.to_f64()),
            Double(v) => Ok(*v),
            Float(v) => Ok(*v as f64),
            UntypedAtomic(s) => parse_double(s.trim()),
            _ => Err(Error::type_error(format!(
                "cannot treat {} as a number",
                self.type_of().name()
            ))),
        }
    }
}

fn double_to_integer(v: f64) -> Result<AtomicValue> {
    if v.is_nan() || v.is_infinite() {
        return Err(Error::value("cannot cast NaN/INF to xs:integer"));
    }
    let t = v.trunc();
    if t < i64::MIN as f64 || t > i64::MAX as f64 {
        return Err(Error::new(ErrorCode::Overflow, "integer overflow in cast"));
    }
    Ok(AtomicValue::Integer(t as i64))
}

fn numeric_compare(a: &AtomicValue, b: &AtomicValue) -> Result<Option<Ordering>> {
    use AtomicValue as V;
    // Exact compare when both sides are exact numerics.
    match (a, b) {
        (V::Integer(x), V::Integer(y)) => return Ok(Some(x.cmp(y))),
        (V::Integer(x), V::Decimal(y)) => {
            return Ok(Some(Decimal::from_i64(*x).cmp(y)));
        }
        (V::Decimal(x), V::Integer(y)) => {
            return Ok(Some(x.cmp(&Decimal::from_i64(*y))));
        }
        (V::Decimal(x), V::Decimal(y)) => return Ok(Some(x.cmp(y))),
        _ => {}
    }
    let x = a.to_double()?;
    let y = b.to_double()?;
    Ok(x.partial_cmp(&y))
}

/// Parse `xs:integer` (optional sign, digits).
pub(crate) fn parse_integer(s: &str) -> Result<i64> {
    let valid = {
        let t = s.strip_prefix(['+', '-']).unwrap_or(s);
        !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())
    };
    if !valid {
        return Err(Error::value(format!("invalid xs:integer literal: {s:?}")));
    }
    s.parse::<i64>()
        .map_err(|_| Error::new(ErrorCode::Overflow, "integer overflow"))
}

/// Parse `xs:double`: decimal or scientific notation, `INF`, `-INF`, `NaN`.
pub fn parse_double(s: &str) -> Result<f64> {
    match s {
        "INF" => return Ok(f64::INFINITY),
        "-INF" => return Ok(f64::NEG_INFINITY),
        "+INF" => return Err(Error::value("xs:double does not accept +INF")),
        "NaN" => return Ok(f64::NAN),
        _ => {}
    }
    // XML Schema doubles do not allow 'e' without digits, leading/trailing
    // junk, or "inf"/"nan" spellings; Rust's parser is close enough after
    // we reject the spellings it additionally accepts.
    let lower = s.to_ascii_lowercase();
    if lower.contains("inf") || lower.contains("nan") || s.contains('_') {
        return Err(Error::value(format!("invalid xs:double literal: {s:?}")));
    }
    s.parse::<f64>()
        .map_err(|_| Error::value(format!("invalid xs:double literal: {s:?}")))
}

/// XPath `fn:string` formatting for doubles/floats: plain decimal inside
/// [1e-6, 1e18), scientific with canonical mantissa outside.
pub(crate) fn fmt_float(v: f64, _is_float: bool) -> String {
    if v.is_nan() {
        return "NaN".into();
    }
    if v.is_infinite() {
        return if v > 0.0 { "INF".into() } else { "-INF".into() };
    }
    if v == 0.0 {
        return if v.is_sign_negative() {
            "-0".into()
        } else {
            "0".into()
        };
    }
    let abs = v.abs();
    if (1e-6..1e18).contains(&abs) {
        if v == v.trunc() && abs < 1e18 {
            format!("{}", v as i128)
        } else {
            let s = format!("{v}");
            s
        }
    } else {
        // Scientific: mantissa in [1,10).
        let exp = abs.log10().floor() as i32;
        let mantissa = v / 10f64.powi(exp);
        format!("{mantissa}E{exp}")
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02X}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(Error::value("hexBinary needs an even number of digits"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(h), Some(l)) => out.push((h * 16 + l) as u8),
            _ => return Err(Error::value("invalid hexBinary digit")),
        }
    }
    Ok(out)
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

fn base64_decode(s: &str) -> Result<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a' + 26) as u32),
            b'0'..=b'9' => Some((c - b'0' + 52) as u32),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let compact: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    if !compact.len().is_multiple_of(4) {
        return Err(Error::value("base64Binary length must be a multiple of 4"));
    }
    let mut out = Vec::with_capacity(compact.len() / 4 * 3);
    for chunk in compact.chunks(4) {
        let pad = chunk.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && chunk[..4 - pad].contains(&b'=')) {
            return Err(Error::value("invalid base64 padding"));
        }
        let mut n: u32 = 0;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' {
                if i < 4 - pad {
                    return Err(Error::value("invalid base64 padding"));
                }
                0
            } else {
                val(c).ok_or_else(|| Error::value("invalid base64 character"))?
            };
            n = (n << 6) | v;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

impl fmt::Display for AtomicValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.string_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(lex: &str, ty: AtomicType) -> AtomicValue {
        AtomicValue::parse_as(lex, ty).unwrap()
    }

    #[test]
    fn parse_primitive_types() {
        assert_eq!(v("42", AtomicType::Integer), AtomicValue::Integer(42));
        assert_eq!(v("-42", AtomicType::Integer), AtomicValue::Integer(-42));
        assert_eq!(v("true", AtomicType::Boolean), AtomicValue::Boolean(true));
        assert_eq!(v("1", AtomicType::Boolean), AtomicValue::Boolean(true));
        assert_eq!(v("0", AtomicType::Boolean), AtomicValue::Boolean(false));
        assert_eq!(v("125.0", AtomicType::Decimal).string_value(), "125");
        assert_eq!(
            v("125.e2", AtomicType::Double),
            AtomicValue::Double(12500.0)
        );
        assert_eq!(
            v("INF", AtomicType::Double),
            AtomicValue::Double(f64::INFINITY)
        );
        assert!(v("NaN", AtomicType::Double).is_nan());
    }

    #[test]
    fn parse_trims_whitespace_for_typed() {
        assert_eq!(v("  42 ", AtomicType::Integer), AtomicValue::Integer(42));
        assert_eq!(
            v(" true\n", AtomicType::Boolean),
            AtomicValue::Boolean(true)
        );
        // but strings keep their content
        assert_eq!(v(" x ", AtomicType::String).string_value(), " x ");
    }

    #[test]
    fn parse_rejects_bad_lexical_forms() {
        assert!(AtomicValue::parse_as("4 2", AtomicType::Integer).is_err());
        assert!(AtomicValue::parse_as("yes", AtomicType::Boolean).is_err());
        assert!(AtomicValue::parse_as("1.2.3", AtomicType::Decimal).is_err());
        assert!(AtomicValue::parse_as("baz", AtomicType::Double).is_err());
        assert!(AtomicValue::parse_as("+INF", AtomicType::Double).is_err());
    }

    #[test]
    fn cast_numeric_matrix() {
        let i = AtomicValue::Integer(42);
        assert_eq!(
            i.cast_to(AtomicType::Double).unwrap(),
            AtomicValue::Double(42.0)
        );
        assert_eq!(i.cast_to(AtomicType::String).unwrap().string_value(), "42");
        let d = AtomicValue::Double(2.9);
        assert_eq!(
            d.cast_to(AtomicType::Integer).unwrap(),
            AtomicValue::Integer(2)
        );
        let d = AtomicValue::Double(-2.9);
        assert_eq!(
            d.cast_to(AtomicType::Integer).unwrap(),
            AtomicValue::Integer(-2)
        );
        assert!(AtomicValue::Double(f64::NAN)
            .cast_to(AtomicType::Integer)
            .is_err());
    }

    #[test]
    fn cast_untyped_like_lexical() {
        let u = AtomicValue::untyped("42");
        assert_eq!(
            u.cast_to(AtomicType::Integer).unwrap(),
            AtomicValue::Integer(42)
        );
        let u = AtomicValue::untyped("baz");
        assert!(u.cast_to(AtomicType::Integer).is_err());
        assert!(u.castable_to(AtomicType::String));
        assert!(!u.castable_to(AtomicType::Integer));
    }

    #[test]
    fn cast_cross_family_fails() {
        let b = AtomicValue::Boolean(true);
        assert!(b.cast_to(AtomicType::Date).is_err());
        let d = v("2004-01-01", AtomicType::Date);
        assert!(d.cast_to(AtomicType::Integer).is_err());
    }

    #[test]
    fn cast_date_family() {
        let dt = v("2004-09-14T10:00:00Z", AtomicType::DateTime);
        assert_eq!(
            dt.cast_to(AtomicType::Date).unwrap().string_value(),
            "2004-09-14Z"
        );
        assert_eq!(
            dt.cast_to(AtomicType::Time).unwrap().string_value(),
            "10:00:00Z"
        );
        let d = v("2004-09-14", AtomicType::Date);
        assert_eq!(
            d.cast_to(AtomicType::DateTime).unwrap().string_value(),
            "2004-09-14T00:00:00"
        );
        assert_eq!(d.cast_to(AtomicType::GYear).unwrap().string_value(), "2004");
        assert_eq!(
            d.cast_to(AtomicType::GMonthDay).unwrap().string_value(),
            "--09-14"
        );
    }

    #[test]
    fn value_compare_untyped_as_string() {
        // <a>42</a> eq "42" → true (untyped compares as string)
        let a = AtomicValue::untyped("42");
        let b = AtomicValue::string("42");
        assert_eq!(a.value_compare(&b, 0).unwrap(), Some(Ordering::Equal));
        // `<a>42</a> eq 42` is an error per the talk's comparison slide:
        // the untyped operand becomes a string, incomparable with integer.
        let c = AtomicValue::Integer(42);
        assert!(a.value_compare(&c, 0).is_err());
    }

    #[test]
    fn value_compare_numeric_promotion() {
        let i = AtomicValue::Integer(1);
        let d = AtomicValue::Decimal(Decimal::parse("1.0").unwrap());
        let f = AtomicValue::Double(1.0);
        assert_eq!(i.value_compare(&d, 0).unwrap(), Some(Ordering::Equal));
        assert_eq!(i.value_compare(&f, 0).unwrap(), Some(Ordering::Equal));
        assert_eq!(
            AtomicValue::Integer(2).value_compare(&f, 0).unwrap(),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn value_compare_nan_is_none() {
        let n = AtomicValue::Double(f64::NAN);
        assert_eq!(n.value_compare(&AtomicValue::Double(1.0), 0).unwrap(), None);
        assert_eq!(n.value_compare(&n, 0).unwrap(), None);
    }

    #[test]
    fn value_compare_incomparable_types_error() {
        let s = AtomicValue::string("x");
        let i = AtomicValue::Integer(1);
        assert!(s.value_compare(&i, 0).is_err());
        let b = AtomicValue::Boolean(true);
        assert!(b.value_compare(&i, 0).is_err());
    }

    #[test]
    fn effective_boolean_value_rules() {
        assert!(!AtomicValue::string("").effective_boolean_value().unwrap());
        assert!(AtomicValue::string("false")
            .effective_boolean_value()
            .unwrap());
        assert!(!AtomicValue::Double(f64::NAN)
            .effective_boolean_value()
            .unwrap());
        assert!(!AtomicValue::Integer(0).effective_boolean_value().unwrap());
        assert!(AtomicValue::Integer(-1).effective_boolean_value().unwrap());
        assert!(v("2004-01-01", AtomicType::Date)
            .effective_boolean_value()
            .is_err());
    }

    #[test]
    fn double_formatting() {
        assert_eq!(AtomicValue::Double(42.0).string_value(), "42");
        assert_eq!(AtomicValue::Double(-0.5).string_value(), "-0.5");
        assert_eq!(AtomicValue::Double(0.0).string_value(), "0");
        assert_eq!(AtomicValue::Double(1e20).string_value(), "1E20");
        assert_eq!(AtomicValue::Double(1.5e-7).string_value(), "1.5E-7");
        assert_eq!(AtomicValue::Double(f64::INFINITY).string_value(), "INF");
    }

    #[test]
    fn hex_and_base64_roundtrip() {
        let data: Vec<u8> = (0..=255u8).collect();
        let hex = v(&hex_encode(&data), AtomicType::HexBinary);
        assert_eq!(hex.string_value(), hex_encode(&data));
        let b64s = base64_encode(&data);
        let b64 = v(&b64s, AtomicType::Base64Binary);
        assert_eq!(b64.string_value(), b64s);
        // Cross-cast preserves bytes.
        assert_eq!(
            hex.cast_to(AtomicType::Base64Binary)
                .unwrap()
                .string_value(),
            b64s
        );
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert!(base64_decode("Zm9").is_err());
        assert!(base64_decode("Z=9v").is_err());
    }

    #[test]
    fn duration_subtypes_enforced() {
        assert!(AtomicValue::parse_as("P1Y", AtomicType::YearMonthDuration).is_ok());
        assert!(AtomicValue::parse_as("P1D", AtomicType::YearMonthDuration).is_err());
        assert!(AtomicValue::parse_as("P1D", AtomicType::DayTimeDuration).is_ok());
        assert!(AtomicValue::parse_as("P1Y", AtomicType::DayTimeDuration).is_err());
    }

    #[test]
    fn duration_comparison_within_subtype() {
        let a = v("P1Y", AtomicType::YearMonthDuration);
        let b = v("P13M", AtomicType::YearMonthDuration);
        assert_eq!(a.value_compare(&b, 0).unwrap(), Some(Ordering::Less));
        let c = v("PT1H", AtomicType::DayTimeDuration);
        let d = v("PT90M", AtomicType::DayTimeDuration);
        assert_eq!(c.value_compare(&d, 0).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn type_name_resolution() {
        assert_eq!(
            AtomicType::from_name("xs:integer"),
            Some(AtomicType::Integer)
        );
        assert_eq!(AtomicType::from_name("integer"), Some(AtomicType::Integer));
        assert_eq!(
            AtomicType::from_name("xdt:untypedAtomic"),
            Some(AtomicType::UntypedAtomic)
        );
        assert_eq!(AtomicType::from_name("xs:token"), Some(AtomicType::String));
        assert_eq!(AtomicType::from_name("xs:nothing"), None);
    }

    #[test]
    fn subtype_lattice() {
        assert!(AtomicType::Integer.is_subtype_of(AtomicType::Decimal));
        assert!(AtomicType::Integer.is_subtype_of(AtomicType::AnyAtomic));
        assert!(!AtomicType::Decimal.is_subtype_of(AtomicType::Integer));
        assert!(AtomicType::YearMonthDuration.is_subtype_of(AtomicType::Duration));
    }
}
