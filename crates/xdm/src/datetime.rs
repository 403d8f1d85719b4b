//! Date, time and duration values for the `xs:date`/`xs:time`/`xs:dateTime`,
//! Gregorian fragment (`xs:gYear` family) and duration types.
//!
//! Implements lexical parsing, comparison on the timeline (missing
//! timezones resolved against an implicit timezone, default UTC), and the
//! arithmetic the XQuery operator table requires: dateTime ± duration,
//! dateTime − dateTime, duration scaling.

use crate::error::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// Timezone offset in minutes from UTC, e.g. `-300` for `-05:00`.
pub type TzOffset = i16;

const DAYS_IN_MONTH: [u8; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
    if month == 2 && is_leap(year) {
        29
    } else {
        DAYS_IN_MONTH[(month - 1) as usize]
    }
}

/// Days from 1970-01-01 (the "civil" algorithm, Howard Hinnant style).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m as i64) + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8;
    let y = if m <= 2 { y + 1 } else { y };
    (y as i32, m, d)
}

/// A combined date+time+optional-timezone value (`xs:dateTime`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DateTime {
    pub year: i32,
    pub month: u8,
    pub day: u8,
    pub hour: u8,
    pub minute: u8,
    pub second: u8,
    pub millis: u16,
    pub tz: Option<TzOffset>,
}

/// An `xs:date` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
    pub tz: Option<TzOffset>,
}

/// An `xs:time` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Time {
    pub hour: u8,
    pub minute: u8,
    pub second: u8,
    pub millis: u16,
    pub tz: Option<TzOffset>,
}

/// Gregorian fragments: which components a `g*` value carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GregorianKind {
    Year,
    YearMonth,
    Month,
    MonthDay,
    Day,
}

/// One value for all five `xs:g*` types; unused fields are 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gregorian {
    pub kind: GregorianKind,
    pub year: i32,
    pub month: u8,
    pub day: u8,
    pub tz: Option<TzOffset>,
}

/// An `xs:duration`: signed months plus signed milliseconds. The derived
/// `xdt:yearMonthDuration` keeps `millis == 0`, `xdt:dayTimeDuration`
/// keeps `months == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Duration {
    pub months: i64,
    pub millis: i64,
}

impl Duration {
    pub(crate) const ZERO: Duration = Duration {
        months: 0,
        millis: 0,
    };

    pub fn from_months(months: i64) -> Self {
        Duration { months, millis: 0 }
    }

    pub fn from_millis(millis: i64) -> Self {
        Duration { months: 0, millis }
    }

    pub fn is_year_month(&self) -> bool {
        self.millis == 0
    }

    pub fn is_day_time(&self) -> bool {
        self.months == 0
    }

    /// Parse `PnYnMnDTnHnMnS` (possibly negative, fractional seconds).
    pub fn parse(s: &str) -> Result<Self> {
        let bad = || Error::value(format!("invalid duration literal: {s:?}"));
        let (neg, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s),
        };
        let rest = rest.strip_prefix('P').ok_or_else(bad)?;
        let (date_part, time_part) = match rest.find('T') {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => (rest, None),
        };
        if date_part.is_empty() && time_part.is_none_or(|t| t.is_empty()) {
            return Err(bad());
        }
        let mut months: i64 = 0;
        let mut millis: i64 = 0;
        let mut saw_any = false;

        let mut num = String::new();
        for ch in date_part.chars() {
            if ch.is_ascii_digit() {
                num.push(ch);
            } else {
                let v: i64 = num.parse().map_err(|_| bad())?;
                num.clear();
                saw_any = true;
                match ch {
                    'Y' => months += v * 12,
                    'M' => months += v,
                    'D' => millis += v * 86_400_000,
                    _ => return Err(bad()),
                }
            }
        }
        if !num.is_empty() {
            return Err(bad());
        }
        if let Some(tp) = time_part {
            if tp.is_empty() {
                return Err(bad());
            }
            let mut num = String::new();
            for ch in tp.chars() {
                if ch.is_ascii_digit() || ch == '.' {
                    num.push(ch);
                } else {
                    saw_any = true;
                    match ch {
                        'H' => {
                            let v: i64 = num.parse().map_err(|_| bad())?;
                            millis += v * 3_600_000;
                        }
                        'M' => {
                            let v: i64 = num.parse().map_err(|_| bad())?;
                            millis += v * 60_000;
                        }
                        'S' => {
                            let v: f64 = num.parse().map_err(|_| bad())?;
                            millis += (v * 1000.0).round() as i64;
                        }
                        _ => return Err(bad()),
                    }
                    num.clear();
                }
            }
            if !num.is_empty() {
                return Err(bad());
            }
        }
        if !saw_any {
            return Err(bad());
        }
        if neg {
            months = -months;
            millis = -millis;
        }
        Ok(Duration { months, millis })
    }

    pub fn checked_add(self, other: Duration) -> Result<Duration> {
        Ok(Duration {
            months: self
                .months
                .checked_add(other.months)
                .ok_or_else(|| Error::value("duration overflow"))?,
            millis: self
                .millis
                .checked_add(other.millis)
                .ok_or_else(|| Error::value("duration overflow"))?,
        })
    }

    pub fn negate(self) -> Duration {
        Duration {
            months: -self.months,
            millis: -self.millis,
        }
    }

    pub fn scale(self, factor: f64) -> Result<Duration> {
        if !factor.is_finite() {
            return Err(Error::value("cannot multiply duration by NaN/INF"));
        }
        Ok(Duration {
            months: (self.months as f64 * factor).round() as i64,
            millis: (self.millis as f64 * factor).round() as i64,
        })
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.months == 0 && self.millis == 0 {
            return f.write_str("PT0S");
        }
        let neg = self.months < 0 || self.millis < 0;
        let months = self.months.abs();
        let millis = self.millis.abs();
        if neg {
            f.write_str("-")?;
        }
        f.write_str("P")?;
        let (y, m) = (months / 12, months % 12);
        if y > 0 {
            write!(f, "{y}Y")?;
        }
        if m > 0 {
            write!(f, "{m}M")?;
        }
        let days = millis / 86_400_000;
        let rem = millis % 86_400_000;
        if days > 0 {
            write!(f, "{days}D")?;
        }
        if rem > 0 {
            f.write_str("T")?;
            let h = rem / 3_600_000;
            let min = (rem % 3_600_000) / 60_000;
            let sec = (rem % 60_000) / 1000;
            let ms = rem % 1000;
            if h > 0 {
                write!(f, "{h}H")?;
            }
            if min > 0 {
                write!(f, "{min}M")?;
            }
            if sec > 0 || ms > 0 {
                if ms > 0 {
                    write!(f, "{sec}.{ms:03}S")?;
                } else {
                    write!(f, "{sec}S")?;
                }
            }
        }
        Ok(())
    }
}

fn parse_tz(s: &str) -> Result<(Option<TzOffset>, &str)> {
    if let Some(rest) = s.strip_suffix('Z') {
        return Ok((Some(0), rest));
    }
    if s.len() >= 6 {
        let tail = &s[s.len() - 6..];
        let b = tail.as_bytes();
        if (b[0] == b'+' || b[0] == b'-') && b[3] == b':' {
            let h: i16 = tail[1..3]
                .parse()
                .map_err(|_| Error::value("bad timezone"))?;
            let m: i16 = tail[4..6]
                .parse()
                .map_err(|_| Error::value("bad timezone"))?;
            if h > 14 || m > 59 {
                return Err(Error::value("timezone out of range"));
            }
            let sign = if b[0] == b'-' { -1 } else { 1 };
            return Ok((Some(sign * (h * 60 + m)), &s[..s.len() - 6]));
        }
    }
    Ok((None, s))
}

fn parse_frac_seconds(s: &str) -> Result<(u8, u16)> {
    let (sec_str, ms) = match s.find('.') {
        Some(i) => {
            let frac = &s[i + 1..];
            if frac.is_empty() || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(Error::value("bad fractional seconds"));
            }
            let mut padded = frac.to_string();
            padded.truncate(3);
            while padded.len() < 3 {
                padded.push('0');
            }
            (&s[..i], padded.parse::<u16>().unwrap())
        }
        None => (s, 0),
    };
    let sec: u8 = sec_str.parse().map_err(|_| Error::value("bad seconds"))?;
    Ok((sec, ms))
}

fn parse_date_fields(s: &str) -> Result<(i32, u8, u8)> {
    // (-)YYYY-MM-DD with YYYY at least 4 digits.
    let bad = || Error::value(format!("invalid date lexical form: {s:?}"));
    let (neg, rest) = match s.strip_prefix('-') {
        Some(r) => (true, r),
        None => (false, s),
    };
    let parts: Vec<&str> = rest.split('-').collect();
    if parts.len() != 3 || parts[0].len() < 4 {
        return Err(bad());
    }
    let year: i32 = parts[0].parse().map_err(|_| bad())?;
    let year = if neg { -year } else { year };
    let month: u8 = parts[1].parse().map_err(|_| bad())?;
    let day: u8 = parts[2].parse().map_err(|_| bad())?;
    if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
        return Err(bad());
    }
    Ok((year, month, day))
}

fn parse_time_fields(s: &str) -> Result<(u8, u8, u8, u16)> {
    let bad = || Error::value(format!("invalid time lexical form: {s:?}"));
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 3 {
        return Err(bad());
    }
    let hour: u8 = parts[0].parse().map_err(|_| bad())?;
    let minute: u8 = parts[1].parse().map_err(|_| bad())?;
    let (second, millis) = parse_frac_seconds(parts[2])?;
    if hour > 24 || minute > 59 || second > 59 || (hour == 24 && (minute != 0 || second != 0)) {
        return Err(bad());
    }
    Ok((hour % 24, minute, second, millis))
}

impl DateTime {
    pub fn parse(s: &str) -> Result<Self> {
        let (tz, rest) = parse_tz(s)?;
        let t_pos = rest
            .find('T')
            .ok_or_else(|| Error::value(format!("invalid dateTime: {s:?}")))?;
        let (year, month, day) = parse_date_fields(&rest[..t_pos])?;
        let (hour, minute, second, millis) = parse_time_fields(&rest[t_pos + 1..])?;
        Ok(DateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
            millis,
            tz,
        })
    }

    /// Milliseconds from the epoch on the UTC timeline; values without a
    /// timezone are interpreted in `implicit_tz` minutes.
    pub fn timeline_millis(&self, implicit_tz: TzOffset) -> i64 {
        let days = days_from_civil(self.year, self.month, self.day);
        let mut ms = days * 86_400_000
            + self.hour as i64 * 3_600_000
            + self.minute as i64 * 60_000
            + self.second as i64 * 1000
            + self.millis as i64;
        let tz = self.tz.unwrap_or(implicit_tz);
        ms -= tz as i64 * 60_000;
        ms
    }

    pub fn from_timeline_millis(ms: i64, tz: Option<TzOffset>) -> Self {
        let local = ms + tz.unwrap_or(0) as i64 * 60_000;
        let days = local.div_euclid(86_400_000);
        let rem = local.rem_euclid(86_400_000);
        let (year, month, day) = civil_from_days(days);
        DateTime {
            year,
            month,
            day,
            hour: (rem / 3_600_000) as u8,
            minute: ((rem % 3_600_000) / 60_000) as u8,
            second: ((rem % 60_000) / 1000) as u8,
            millis: (rem % 1000) as u16,
            tz,
        }
    }

    pub(crate) fn compare(&self, other: &DateTime, implicit_tz: TzOffset) -> Ordering {
        self.timeline_millis(implicit_tz)
            .cmp(&other.timeline_millis(implicit_tz))
    }

    /// Add a duration: months first (clamping the day), then millis.
    pub fn add_duration(&self, d: Duration) -> Result<DateTime> {
        let total_months = (self.year as i64) * 12 + (self.month as i64 - 1) + d.months;
        let year = total_months.div_euclid(12) as i32;
        let month = (total_months.rem_euclid(12) + 1) as u8;
        let day = self.day.min(days_in_month(year, month));
        let base = DateTime {
            year,
            month,
            day,
            ..*self
        };
        let ms = base.timeline_millis(0) + d.millis;
        Ok(Self::render_at(ms, self.tz))
    }

    /// Render a timeline instant in the given timezone so the local
    /// fields line up with that zone.
    fn render_at(timeline_ms: i64, tz: Option<TzOffset>) -> DateTime {
        let mut dt =
            DateTime::from_timeline_millis(timeline_ms + tz.unwrap_or(0) as i64 * 60_000, None);
        dt.tz = tz;
        dt
    }

    /// dateTime − dateTime → dayTimeDuration (in millis).
    pub fn sub_datetime(&self, other: &DateTime, implicit_tz: TzOffset) -> Duration {
        Duration::from_millis(
            self.timeline_millis(implicit_tz) - other.timeline_millis(implicit_tz),
        )
    }

    pub fn date(&self) -> Date {
        Date {
            year: self.year,
            month: self.month,
            day: self.day,
            tz: self.tz,
        }
    }

    pub fn time(&self) -> Time {
        Time {
            hour: self.hour,
            minute: self.minute,
            second: self.second,
            millis: self.millis,
            tz: self.tz,
        }
    }
}

fn fmt_tz(f: &mut fmt::Formatter<'_>, tz: Option<TzOffset>) -> fmt::Result {
    match tz {
        None => Ok(()),
        Some(0) => f.write_str("Z"),
        Some(off) => {
            let sign = if off < 0 { '-' } else { '+' };
            let a = off.abs();
            write!(f, "{sign}{:02}:{:02}", a / 60, a % 60)
        }
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
            self.year, self.month, self.day, self.hour, self.minute, self.second
        )?;
        if self.millis > 0 {
            write!(f, ".{:03}", self.millis)?;
        }
        fmt_tz(f, self.tz)
    }
}

impl Date {
    pub(crate) fn parse(s: &str) -> Result<Self> {
        let (tz, rest) = parse_tz(s)?;
        let (year, month, day) = parse_date_fields(rest)?;
        Ok(Date {
            year,
            month,
            day,
            tz,
        })
    }

    pub fn to_datetime(self) -> DateTime {
        DateTime {
            year: self.year,
            month: self.month,
            day: self.day,
            hour: 0,
            minute: 0,
            second: 0,
            millis: 0,
            tz: self.tz,
        }
    }

    pub fn compare(&self, other: &Date, implicit_tz: TzOffset) -> Ordering {
        self.to_datetime()
            .compare(&other.to_datetime(), implicit_tz)
    }

    pub fn add_duration(&self, d: Duration) -> Result<Date> {
        Ok(self.to_datetime().add_duration(d)?.date())
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)?;
        fmt_tz(f, self.tz)
    }
}

impl Time {
    pub(crate) fn parse(s: &str) -> Result<Self> {
        let (tz, rest) = parse_tz(s)?;
        let (hour, minute, second, millis) = parse_time_fields(rest)?;
        Ok(Time {
            hour,
            minute,
            second,
            millis,
            tz,
        })
    }

    pub(crate) fn millis_of_day(&self, implicit_tz: TzOffset) -> i64 {
        let ms = self.hour as i64 * 3_600_000
            + self.minute as i64 * 60_000
            + self.second as i64 * 1000
            + self.millis as i64;
        ms - self.tz.unwrap_or(implicit_tz) as i64 * 60_000
    }

    pub(crate) fn compare(&self, other: &Time, implicit_tz: TzOffset) -> Ordering {
        self.millis_of_day(implicit_tz)
            .cmp(&other.millis_of_day(implicit_tz))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02}:{:02}:{:02}", self.hour, self.minute, self.second)?;
        if self.millis > 0 {
            write!(f, ".{:03}", self.millis)?;
        }
        fmt_tz(f, self.tz)
    }
}

impl Gregorian {
    pub(crate) fn parse(kind: GregorianKind, s: &str) -> Result<Self> {
        let bad = || Error::value(format!("invalid gregorian lexical form: {s:?}"));
        let (tz, rest) = parse_tz(s)?;
        let mut g = Gregorian {
            kind,
            year: 1,
            month: 1,
            day: 1,
            tz,
        };
        match kind {
            GregorianKind::Year => {
                let (neg, digits) = match rest.strip_prefix('-') {
                    Some(r) => (true, r),
                    None => (false, rest),
                };
                if digits.len() < 4 || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(bad());
                }
                let y: i32 = digits.parse().map_err(|_| bad())?;
                g.year = if neg { -y } else { y };
            }
            GregorianKind::YearMonth => {
                let i = rest.rfind('-').ok_or_else(bad)?;
                if i == 0 {
                    return Err(bad());
                }
                let y: i32 = rest[..i].parse().map_err(|_| bad())?;
                let m: u8 = rest[i + 1..].parse().map_err(|_| bad())?;
                if !(1..=12).contains(&m) {
                    return Err(bad());
                }
                g.year = y;
                g.month = m;
            }
            GregorianKind::Month => {
                let r = rest.strip_prefix("--").ok_or_else(bad)?;
                let m: u8 = r.parse().map_err(|_| bad())?;
                if !(1..=12).contains(&m) {
                    return Err(bad());
                }
                g.month = m;
            }
            GregorianKind::MonthDay => {
                let r = rest.strip_prefix("--").ok_or_else(bad)?;
                let (ms, ds) = r.split_once('-').ok_or_else(bad)?;
                let m: u8 = ms.parse().map_err(|_| bad())?;
                let d: u8 = ds.parse().map_err(|_| bad())?;
                if !(1..=12).contains(&m) || d == 0 || d > days_in_month(2000, m) {
                    return Err(bad());
                }
                g.month = m;
                g.day = d;
            }
            GregorianKind::Day => {
                let r = rest.strip_prefix("---").ok_or_else(bad)?;
                let d: u8 = r.parse().map_err(|_| bad())?;
                if d == 0 || d > 31 {
                    return Err(bad());
                }
                g.day = d;
            }
        }
        Ok(g)
    }
}

impl fmt::Display for Gregorian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            GregorianKind::Year => write!(f, "{:04}", self.year)?,
            GregorianKind::YearMonth => write!(f, "{:04}-{:02}", self.year, self.month)?,
            GregorianKind::Month => write!(f, "--{:02}", self.month)?,
            GregorianKind::MonthDay => write!(f, "--{:02}-{:02}", self.month, self.day)?,
            GregorianKind::Day => write!(f, "---{:02}", self.day)?,
        }
        fmt_tz(f, self.tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parse_and_display() {
        let d = Date::parse("1967-05-20").unwrap();
        assert_eq!(d.to_string(), "1967-05-20");
        let d = Date::parse("2002-05-20Z").unwrap();
        assert_eq!(d.tz, Some(0));
        let d = Date::parse("2002-05-20-05:00").unwrap();
        assert_eq!(d.tz, Some(-300));
        assert_eq!(d.to_string(), "2002-05-20-05:00");
    }

    #[test]
    fn date_rejects_invalid() {
        for s in [
            "2002-13-01",
            "2002-02-30",
            "2002-00-10",
            "02-01-01",
            "2002/01/01",
            "",
        ] {
            assert!(Date::parse(s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn leap_year_handling() {
        assert!(Date::parse("2000-02-29").is_ok());
        assert!(Date::parse("1900-02-29").is_err());
        assert!(Date::parse("2004-02-29").is_ok());
        assert!(Date::parse("2003-02-29").is_err());
    }

    #[test]
    fn datetime_parse_display_roundtrip() {
        for s in [
            "2004-09-14T12:00:00",
            "2004-09-14T12:00:00Z",
            "2004-09-14T12:00:00.500+05:30",
            "1967-01-01T00:00:00-11:00",
        ] {
            let dt = DateTime::parse(s).unwrap();
            assert_eq!(dt.to_string(), *s, "roundtrip {s}");
        }
    }

    #[test]
    fn timeline_comparison_uses_timezone() {
        let a = DateTime::parse("2004-01-01T12:00:00Z").unwrap();
        let b = DateTime::parse("2004-01-01T07:00:00-05:00").unwrap();
        assert_eq!(a.compare(&b, 0), Ordering::Equal);
        let c = DateTime::parse("2004-01-01T12:00:00+01:00").unwrap();
        assert_eq!(c.compare(&a, 0), Ordering::Less);
    }

    #[test]
    fn implicit_timezone_applies_to_untimezoned() {
        let a = DateTime::parse("2004-01-01T12:00:00").unwrap();
        let b = DateTime::parse("2004-01-01T12:00:00Z").unwrap();
        assert_eq!(a.compare(&b, 0), Ordering::Equal);
        assert_eq!(a.compare(&b, -60), Ordering::Greater); // local is behind UTC
    }

    #[test]
    fn duration_parse_and_display() {
        let d = Duration::parse("P1Y2M3DT4H5M6S").unwrap();
        assert_eq!(d.months, 14);
        assert_eq!(
            d.millis,
            3 * 86_400_000 + 4 * 3_600_000 + 5 * 60_000 + 6 * 1000
        );
        assert_eq!(d.to_string(), "P1Y2M3DT4H5M6S");
        assert_eq!(Duration::parse("PT0S").unwrap(), Duration::ZERO);
        assert_eq!(Duration::parse("-P1D").unwrap().millis, -86_400_000);
        assert_eq!(Duration::parse("PT1.5S").unwrap().millis, 1500);
    }

    #[test]
    fn duration_rejects_invalid() {
        for s in ["P", "PT", "1Y", "P1", "P1.5Y", "PYMD", ""] {
            assert!(Duration::parse(s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn add_year_month_duration_clamps_day() {
        let d = Date::parse("2004-01-31").unwrap();
        let d2 = d.add_duration(Duration::from_months(1)).unwrap();
        assert_eq!(d2.to_string(), "2004-02-29");
        let d3 = Date::parse("2003-01-31")
            .unwrap()
            .add_duration(Duration::from_months(1))
            .unwrap();
        assert_eq!(d3.to_string(), "2003-02-28");
    }

    #[test]
    fn add_day_time_duration() {
        let dt = DateTime::parse("2004-12-31T23:00:00").unwrap();
        let dt2 = dt
            .add_duration(Duration::from_millis(2 * 3_600_000))
            .unwrap();
        assert_eq!(dt2.to_string(), "2005-01-01T01:00:00");
    }

    #[test]
    fn subtract_datetimes() {
        let a = DateTime::parse("2004-01-02T00:00:00Z").unwrap();
        let b = DateTime::parse("2004-01-01T00:00:00Z").unwrap();
        let d = a.sub_datetime(&b, 0);
        assert_eq!(d.millis, 86_400_000);
        assert_eq!(d.to_string(), "P1D");
    }

    #[test]
    fn time_parse_and_compare() {
        let a = Time::parse("13:20:00").unwrap();
        let b = Time::parse("13:20:30.555").unwrap();
        assert_eq!(a.compare(&b, 0), Ordering::Less);
        assert_eq!(b.to_string(), "13:20:30.555");
        assert!(Time::parse("25:00:00").is_err());
        assert_eq!(Time::parse("24:00:00").unwrap().hour, 0);
    }

    #[test]
    fn gregorian_forms() {
        assert_eq!(
            Gregorian::parse(GregorianKind::Year, "1967")
                .unwrap()
                .to_string(),
            "1967"
        );
        assert_eq!(
            Gregorian::parse(GregorianKind::YearMonth, "2004-09")
                .unwrap()
                .to_string(),
            "2004-09"
        );
        assert_eq!(
            Gregorian::parse(GregorianKind::Month, "--09")
                .unwrap()
                .to_string(),
            "--09"
        );
        assert_eq!(
            Gregorian::parse(GregorianKind::MonthDay, "--09-14")
                .unwrap()
                .to_string(),
            "--09-14"
        );
        assert_eq!(
            Gregorian::parse(GregorianKind::Day, "---14")
                .unwrap()
                .to_string(),
            "---14"
        );
        assert!(Gregorian::parse(GregorianKind::Month, "--13").is_err());
        assert!(Gregorian::parse(GregorianKind::Day, "---32").is_err());
    }

    #[test]
    fn civil_day_conversions_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (1967, 5, 20),
            (2204, 12, 31),
            (1, 1, 1),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1969, 12, 31), -1);
    }
}
