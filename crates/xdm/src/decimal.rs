//! Fixed-point `xs:decimal` arithmetic.
//!
//! The talk points out that `xs:decimal` value comparison is only "almost
//! transitive ... due to the loss of precision"; we avoid that trap by
//! storing decimals exactly as a 128-bit coefficient with a decimal scale,
//! so comparison is exact and total within the supported range.

use crate::error::{Error, ErrorCode, Result};
use std::cmp::Ordering;
use std::fmt;

/// Maximum digits after the decimal point we keep. Division rounds
/// (half-even) to this scale, everything else is exact or overflows.
pub(crate) const MAX_SCALE: u32 = 18;

const POW10: [i128; 39] = {
    let mut t = [0i128; 39];
    let mut i = 0;
    let mut v = 1i128;
    while i < 39 {
        t[i] = v;
        if i < 38 {
            v = v.saturating_mul(10);
        }
        i += 1;
    }
    t
};

/// An exact decimal: `coeff * 10^-scale`. Always kept in normalized form
/// (no trailing zero digits in the fraction, zero has scale 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decimal {
    coeff: i128,
    scale: u32,
}

impl Decimal {
    pub const ZERO: Decimal = Decimal { coeff: 0, scale: 0 };
    pub const ONE: Decimal = Decimal { coeff: 1, scale: 0 };

    /// Build from a raw coefficient and scale, normalizing.
    pub fn from_parts(coeff: i128, scale: u32) -> Result<Self> {
        if scale > 38 {
            return Err(Error::new(ErrorCode::Overflow, "decimal scale too large"));
        }
        Ok(Decimal { coeff, scale }.normalize())
    }

    pub fn from_i64(v: i64) -> Self {
        Decimal {
            coeff: v as i128,
            scale: 0,
        }
    }

    fn normalize(mut self) -> Self {
        if self.coeff == 0 {
            self.scale = 0;
            return self;
        }
        while self.scale > 0 && self.coeff % 10 == 0 {
            self.coeff /= 10;
            self.scale -= 1;
        }
        self
    }

    pub fn is_zero(&self) -> bool {
        self.coeff == 0
    }

    pub fn is_negative(&self) -> bool {
        self.coeff < 0
    }

    /// Parse an `xs:decimal` lexical form: optional sign, digits, optional
    /// fraction. Leading `+`, surrounding whitespace NOT accepted here —
    /// callers trim per the whitespace facet first.
    pub fn parse(s: &str) -> Result<Self> {
        let bad = || Error::value(format!("invalid xs:decimal literal: {s:?}"));
        let bytes = s.as_bytes();
        if bytes.is_empty() {
            return Err(bad());
        }
        let (neg, rest) = match bytes[0] {
            b'-' => (true, &s[1..]),
            b'+' => (false, &s[1..]),
            _ => (false, s),
        };
        if rest.is_empty() || rest == "." {
            return Err(bad());
        }
        let (int_part, frac_part) = match rest.find('.') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(bad());
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(bad());
        }
        // Truncate excess fraction digits beyond what i128 can hold exactly;
        // lexical forms longer than 38 significant digits overflow.
        let mut coeff: i128 = 0;
        let mut scale: u32 = 0;
        for b in int_part.bytes() {
            coeff = coeff
                .checked_mul(10)
                .and_then(|c| c.checked_add((b - b'0') as i128))
                .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        }
        for b in frac_part.bytes() {
            if scale >= MAX_SCALE {
                break; // round toward zero past max scale
            }
            coeff = coeff
                .checked_mul(10)
                .and_then(|c| c.checked_add((b - b'0') as i128))
                .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
            scale += 1;
        }
        if neg {
            coeff = -coeff;
        }
        Ok(Decimal { coeff, scale }.normalize())
    }

    /// Rescale both operands to a common scale. Errors on overflow.
    fn align(a: Decimal, b: Decimal) -> Result<(i128, i128, u32)> {
        let scale = a.scale.max(b.scale);
        let ac = a
            .coeff
            .checked_mul(POW10[(scale - a.scale) as usize])
            .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        let bc = b
            .coeff
            .checked_mul(POW10[(scale - b.scale) as usize])
            .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        Ok((ac, bc, scale))
    }

    pub fn checked_add(self, other: Decimal) -> Result<Decimal> {
        let (a, b, scale) = Self::align(self, other)?;
        let coeff = a
            .checked_add(b)
            .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        Ok(Decimal { coeff, scale }.normalize())
    }

    pub fn checked_sub(self, other: Decimal) -> Result<Decimal> {
        self.checked_add(other.checked_neg()?)
    }

    pub fn checked_neg(self) -> Result<Decimal> {
        let coeff = self
            .coeff
            .checked_neg()
            .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        Ok(Decimal {
            coeff,
            scale: self.scale,
        })
    }

    pub fn checked_mul(self, other: Decimal) -> Result<Decimal> {
        let coeff = self
            .coeff
            .checked_mul(other.coeff)
            .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        let mut d = Decimal {
            coeff,
            scale: self.scale + other.scale,
        };
        // Reduce scale if it exceeds what we track.
        while d.scale > MAX_SCALE {
            d.coeff /= 10;
            d.scale -= 1;
        }
        Ok(d.normalize())
    }

    /// Division rounds half-even at `MAX_SCALE` digits.
    pub fn checked_div(self, other: Decimal) -> Result<Decimal> {
        if other.is_zero() {
            return Err(Error::new(
                ErrorCode::DivisionByZero,
                "decimal division by zero",
            ));
        }
        // Compute (self / other) at MAX_SCALE digits of fraction:
        // scaled = self.coeff * 10^(MAX_SCALE + other.scale - self.scale) / other.coeff
        let target_scale = MAX_SCALE;
        let shift = target_scale as i64 + other.scale as i64 - self.scale as i64;
        let mut num = self.coeff;
        let mut den = other.coeff;
        if shift >= 0 {
            num = num
                .checked_mul(
                    POW10
                        .get(shift as usize)
                        .copied()
                        .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?,
                )
                .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        } else {
            den = den
                .checked_mul(
                    POW10
                        .get((-shift) as usize)
                        .copied()
                        .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?,
                )
                .ok_or_else(|| Error::new(ErrorCode::Overflow, "decimal overflow"))?;
        }
        let q = num / den;
        let r = num % den;
        // Half-even rounding on the remainder.
        let mut q = q;
        let twice = r.checked_mul(2).unwrap_or(i128::MAX);
        if twice.abs() > den.abs() || (twice.abs() == den.abs() && q % 2 != 0) {
            if (num < 0) != (den < 0) {
                q -= 1;
            } else {
                q += 1;
            }
        }
        Ok(Decimal {
            coeff: q,
            scale: target_scale,
        }
        .normalize())
    }

    /// `idiv`: integer division truncating toward zero.
    pub fn checked_idiv(self, other: Decimal) -> Result<i128> {
        if other.is_zero() {
            return Err(Error::new(ErrorCode::DivisionByZero, "idiv by zero"));
        }
        let (a, b, _) = Self::align(self, other)?;
        Ok(a / b)
    }

    /// `mod` with the sign of the dividend (XQuery semantics).
    pub fn checked_rem(self, other: Decimal) -> Result<Decimal> {
        if other.is_zero() {
            return Err(Error::new(ErrorCode::DivisionByZero, "mod by zero"));
        }
        let (a, b, scale) = Self::align(self, other)?;
        Ok(Decimal {
            coeff: a % b,
            scale,
        }
        .normalize())
    }

    pub fn abs(self) -> Decimal {
        if self.coeff < 0 {
            Decimal {
                coeff: -self.coeff,
                scale: self.scale,
            }
        } else {
            self
        }
    }

    pub fn floor(self) -> Decimal {
        if self.scale == 0 {
            return self;
        }
        let p = POW10[self.scale as usize];
        let mut q = self.coeff / p;
        if self.coeff < 0 && self.coeff % p != 0 {
            q -= 1;
        }
        Decimal { coeff: q, scale: 0 }
    }

    pub fn ceiling(self) -> Decimal {
        if self.scale == 0 {
            return self;
        }
        let p = POW10[self.scale as usize];
        let mut q = self.coeff / p;
        if self.coeff > 0 && self.coeff % p != 0 {
            q += 1;
        }
        Decimal { coeff: q, scale: 0 }
    }

    /// `fn:round`: round half toward positive infinity.
    pub fn round(self) -> Decimal {
        if self.scale == 0 {
            return self;
        }
        let p = POW10[self.scale as usize];
        let q = self.coeff / p;
        let r = self.coeff % p;
        let half = p / 2;
        let q = if r >= half {
            q + 1
        } else if -r > half {
            q - 1
        } else {
            q
        };
        Decimal { coeff: q, scale: 0 }
    }

    /// Round half-to-even at `precision` fraction digits (fn:round-half-to-even).
    pub fn round_half_even(self, precision: i64) -> Decimal {
        if precision >= self.scale as i64 {
            return self;
        }
        if precision < -38 {
            return Decimal::ZERO;
        }
        let drop = (self.scale as i64 - precision) as u32;
        if drop as usize >= POW10.len() {
            return Decimal::ZERO;
        }
        let p = POW10[drop as usize];
        let mut q = self.coeff / p;
        let r = self.coeff % p;
        let twice = r.saturating_mul(2);
        if twice.abs() > p || (twice.abs() == p && q % 2 != 0) {
            if self.coeff < 0 {
                q -= 1;
            } else {
                q += 1;
            }
        }
        let new_scale = if precision < 0 { 0 } else { precision as u32 };
        if precision < 0 {
            let back = POW10[(-precision) as usize];
            q = q.saturating_mul(back);
        }
        Decimal {
            coeff: q,
            scale: new_scale,
        }
        .normalize()
    }

    pub fn to_f64(self) -> f64 {
        self.coeff as f64 / POW10[self.scale as usize] as f64
    }

    pub fn from_f64(v: f64) -> Result<Self> {
        if !v.is_finite() {
            return Err(Error::value("cannot convert non-finite double to decimal"));
        }
        // Render with enough precision then parse; exactness beyond 17
        // significant digits is not meaningful for f64 anyway.
        let s = format!("{v:.17}");
        Decimal::parse(s.trim_end_matches('0').trim_end_matches('.'))
            .or_else(|_| Decimal::parse(&format!("{v}")))
    }

    /// Truncate toward zero to an i64 (used for casts to integer types).
    pub(crate) fn trunc_to_i128(self) -> i128 {
        self.coeff / POW10[self.scale as usize]
    }
}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare without materializing: align scales via widening i128 math.
        match Self::align(*self, *other) {
            Ok((a, b, _)) => a.cmp(&b),
            Err(_) => {
                // Fall back to float comparison only in the overflow fringe.
                self.to_f64()
                    .partial_cmp(&other.to_f64())
                    .unwrap_or(Ordering::Equal)
            }
        }
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.coeff);
        }
        let p = POW10[self.scale as usize];
        let int = self.coeff / p;
        let frac = (self.coeff % p).abs();
        let sign = if self.coeff < 0 && int == 0 { "-" } else { "" };
        write!(f, "{sign}{int}.{frac:0width$}", width = self.scale as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        Decimal::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "-1", "3.14", "-0.5", "125.0", "10.25"] {
            let v = d(s);
            let back = Decimal::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{s}");
        }
    }

    #[test]
    fn normalization_strips_trailing_zeros() {
        assert_eq!(d("1.500"), d("1.5"));
        assert_eq!(d("1.500").to_string(), "1.5");
        assert_eq!(d("0.000").to_string(), "0");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", ".", "+", "-", "1.2.3", "1e5", "abc", "1 "] {
            assert!(Decimal::parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn parse_accepts_leading_dot_and_trailing_dot() {
        assert_eq!(d(".5"), d("0.5"));
        assert_eq!(d("5."), d("5"));
        assert_eq!(d("+5"), d("5"));
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(d("1.1").checked_add(d("2.2")).unwrap(), d("3.3"));
        assert_eq!(
            d("1")
                .checked_sub(d("4").checked_mul(d("8.5")).unwrap())
                .unwrap(),
            d("-33")
        );
        assert_eq!(d("5").checked_div(d("2")).unwrap(), d("2.5"));
        assert_eq!(d("1").checked_div(d("3")).unwrap().to_string().len(), 20); // 0.333...
    }

    #[test]
    fn idiv_truncates_toward_zero() {
        assert_eq!(d("7").checked_idiv(d("2")).unwrap(), 3);
        assert_eq!(d("-7").checked_idiv(d("2")).unwrap(), -3);
        assert_eq!(d("7.5").checked_idiv(d("2.5")).unwrap(), 3);
    }

    #[test]
    fn mod_takes_sign_of_dividend() {
        assert_eq!(d("7").checked_rem(d("3")).unwrap(), d("1"));
        assert_eq!(d("-7").checked_rem(d("3")).unwrap(), d("-1"));
        assert_eq!(d("7").checked_rem(d("-3")).unwrap(), d("1"));
        assert_eq!(d("6.1").checked_rem(d("2")).unwrap(), d("0.1"));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            d("1").checked_div(d("0")).unwrap_err().code,
            ErrorCode::DivisionByZero
        );
        assert_eq!(
            d("1").checked_idiv(d("0")).unwrap_err().code,
            ErrorCode::DivisionByZero
        );
        assert_eq!(
            d("1").checked_rem(d("0")).unwrap_err().code,
            ErrorCode::DivisionByZero
        );
    }

    #[test]
    fn comparison_is_exact() {
        assert!(d("0.1") < d("0.2"));
        assert!(d("-0.1") > d("-0.2"));
        assert_eq!(d("1.0").cmp(&d("1")), Ordering::Equal);
        assert!(d("10") > d("9.999999999"));
    }

    #[test]
    fn floor_ceiling_round() {
        assert_eq!(d("2.5").floor(), d("2"));
        assert_eq!(d("-2.5").floor(), d("-3"));
        assert_eq!(d("2.5").ceiling(), d("3"));
        assert_eq!(d("-2.5").ceiling(), d("-2"));
        assert_eq!(d("2.5").round(), d("3"));
        assert_eq!(d("-2.5").round(), d("-2")); // round half toward +inf
        assert_eq!(d("2.4999").round(), d("2"));
    }

    #[test]
    fn round_half_even() {
        assert_eq!(d("0.5").round_half_even(0), d("0"));
        assert_eq!(d("1.5").round_half_even(0), d("2"));
        assert_eq!(d("2.5").round_half_even(0), d("2"));
        assert_eq!(d("3.567812").round_half_even(2), d("3.57"));
        assert_eq!(d("35612.25").round_half_even(-2), d("35600"));
    }

    #[test]
    fn display_negative_fraction_only() {
        assert_eq!(d("-0.5").to_string(), "-0.5");
        assert_eq!(d("-1.05").to_string(), "-1.05");
    }

    #[test]
    fn f64_conversions() {
        assert!((d("3.25").to_f64() - 3.25).abs() < 1e-12);
        let back = Decimal::from_f64(2.5).unwrap();
        assert_eq!(back, d("2.5"));
        assert!(Decimal::from_f64(f64::NAN).is_err());
    }

    #[test]
    fn truncation() {
        assert_eq!(d("5.9").trunc_to_i128(), 5);
        assert_eq!(d("-5.9").trunc_to_i128(), -5);
    }
}
