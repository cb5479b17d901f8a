//! Timestamps, dates, and intervals.
//!
//! `timestamptz` is an i64 count of microseconds since the Unix epoch, UTC.
//! `date` is an i32 count of days since the Unix epoch. `interval` is the
//! Postgres triple (months, days, microseconds). Parsing accepts the subset
//! of ISO-8601 / Postgres syntax that MobilityDB literals use; printing
//! matches MobilityDB's output (`2025-01-01 00:00:00+00`).

use std::fmt;
use std::ops::{Add, Sub};

use crate::error::{TemporalError, TemporalResult};

pub const USECS_PER_SEC: i64 = 1_000_000;
pub const USECS_PER_MIN: i64 = 60 * USECS_PER_SEC;
pub const USECS_PER_HOUR: i64 = 60 * USECS_PER_MIN;
pub const USECS_PER_DAY: i64 = 24 * USECS_PER_HOUR;

/// A timezone-aware timestamp: microseconds since 1970-01-01 00:00:00 UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimestampTz(pub i64);

/// A calendar date: days since 1970-01-01.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(pub i32);

/// A Postgres-style interval. Months and days are kept separate from the
/// microsecond part so that `interval '1 month'` and `interval '30 days'`
/// stay distinct, as in Postgres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Interval {
    pub months: i32,
    pub days: i32,
    pub usecs: i64,
}

// ---------------------------------------------------------------- civil date
// Howard Hinnant's algorithms: days <-> (y, m, d), valid over ±millions of
// years, branch-light.

/// Days since 1970-01-01 for a civil date.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = ((m + 9) % 12) as u64;
    let doy = (153 * mp + 2) / 5 + (d as u64 - 1); // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date for days since 1970-01-01.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl TimestampTz {
    /// Build from civil components (UTC).
    pub fn from_ymd_hms(y: i64, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> Self {
        let days = days_from_civil(y, mo, d);
        TimestampTz(
            days * USECS_PER_DAY
                + h as i64 * USECS_PER_HOUR
                + mi as i64 * USECS_PER_MIN
                + s as i64 * USECS_PER_SEC,
        )
    }

    /// Microseconds since the Unix epoch.
    #[inline]
    pub fn micros(self) -> i64 {
        self.0
    }

    /// Truncate to the containing date.
    pub fn date(self) -> Date {
        Date(self.0.div_euclid(USECS_PER_DAY) as i32)
    }

    /// Add an interval (months shift the civil date, then days, then usecs).
    pub fn add_interval(self, iv: &Interval) -> TimestampTz {
        let mut t = self;
        if iv.months != 0 {
            let days = t.0.div_euclid(USECS_PER_DAY);
            let tod = t.0.rem_euclid(USECS_PER_DAY);
            let (y, m, d) = civil_from_days(days);
            let total_m = y * 12 + (m as i64 - 1) + iv.months as i64;
            let ny = total_m.div_euclid(12);
            let nm = (total_m.rem_euclid(12) + 1) as u32;
            let nd = d.min(days_in_month(ny, nm));
            t = TimestampTz(days_from_civil(ny, nm, nd) * USECS_PER_DAY + tod);
        }
        TimestampTz(t.0 + iv.days as i64 * USECS_PER_DAY + iv.usecs)
    }

    /// Subtract an interval.
    pub fn sub_interval(self, iv: &Interval) -> TimestampTz {
        self.add_interval(&Interval { months: -iv.months, days: -iv.days, usecs: -iv.usecs })
    }
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 30,
    }
}

impl Add<Interval> for TimestampTz {
    type Output = TimestampTz;
    fn add(self, rhs: Interval) -> TimestampTz {
        self.add_interval(&rhs)
    }
}

impl Sub for TimestampTz {
    type Output = Interval;
    /// Timestamp difference as a pure-microseconds interval (Postgres `-`).
    fn sub(self, rhs: TimestampTz) -> Interval {
        Interval::from_usecs(self.0 - rhs.0)
    }
}

impl Date {
    pub fn from_ymd(y: i64, m: u32, d: u32) -> Self {
        Date(days_from_civil(y, m, d) as i32)
    }

    /// Midnight UTC of this date.
    pub fn at_midnight(self) -> TimestampTz {
        TimestampTz(self.0 as i64 * USECS_PER_DAY)
    }
}

impl Interval {
    pub const ZERO: Interval = Interval { months: 0, days: 0, usecs: 0 };

    pub fn from_usecs(usecs: i64) -> Self {
        Interval { months: 0, days: 0, usecs }
    }

    pub fn from_days(days: i32) -> Self {
        Interval { months: 0, days, usecs: 0 }
    }

    /// Approximate total length in microseconds (month = 30 days, as
    /// Postgres does for interval comparison).
    pub fn approx_usecs(&self) -> i64 {
        (self.months as i64 * 30 + self.days as i64) * USECS_PER_DAY + self.usecs
    }

    pub fn is_zero(&self) -> bool {
        self.months == 0 && self.days == 0 && self.usecs == 0
    }

    /// Normalize a microseconds count into days+usecs for printing.
    pub fn justified(&self) -> Interval {
        let extra_days = self.usecs.div_euclid(USECS_PER_DAY);
        Interval {
            months: self.months,
            days: self.days + extra_days as i32,
            usecs: self.usecs.rem_euclid(USECS_PER_DAY),
        }
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        Interval {
            months: self.months + rhs.months,
            days: self.days + rhs.days,
            usecs: self.usecs + rhs.usecs,
        }
    }
}

// ---------------------------------------------------------------- parsing

/// Parse a timestamp: `YYYY-MM-DD[ HH:MM[:SS[.ffffff]]][±HH[:MM]|Z]`.
pub fn parse_timestamp(s: &str) -> TemporalResult<TimestampTz> {
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid timestamp {s:?}"));
    let bytes = s.as_bytes();
    // Date part.
    let mut i = 0;
    let read_num = |i: &mut usize, max_len: usize| -> Option<i64> {
        let start = *i;
        let mut neg = false;
        if *i < bytes.len() && bytes[*i] == b'-' && start == 0 {
            neg = true;
            *i += 1;
        }
        let digits_start = *i;
        while *i < bytes.len() && bytes[*i].is_ascii_digit() && *i - digits_start < max_len {
            *i += 1;
        }
        if *i == digits_start {
            return None;
        }
        let v: i64 = s[digits_start..*i].parse().ok()?;
        Some(if neg { -v } else { v })
    };
    let y = read_num(&mut i, 6).ok_or_else(bad)?;
    if i >= bytes.len() || bytes[i] != b'-' {
        return Err(bad());
    }
    i += 1;
    let mo = read_num(&mut i, 2).ok_or_else(bad)? as u32;
    if i >= bytes.len() || bytes[i] != b'-' {
        return Err(bad());
    }
    i += 1;
    let d = read_num(&mut i, 2).ok_or_else(bad)? as u32;
    if !(1..=12).contains(&mo) || d < 1 || d > days_in_month(y, mo) {
        return Err(bad());
    }
    let mut usecs = days_from_civil(y, mo, d) * USECS_PER_DAY;

    // Optional time part.
    if i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'T') {
        i += 1;
        let h = read_num(&mut i, 2).ok_or_else(bad)?;
        if i >= bytes.len() || bytes[i] != b':' {
            return Err(bad());
        }
        i += 1;
        let mi = read_num(&mut i, 2).ok_or_else(bad)?;
        let mut sec = 0i64;
        let mut frac = 0i64;
        if i < bytes.len() && bytes[i] == b':' {
            i += 1;
            sec = read_num(&mut i, 2).ok_or_else(bad)?;
            if i < bytes.len() && bytes[i] == b'.' {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let fs = &s[start..i];
                if fs.is_empty() || fs.len() > 6 {
                    return Err(bad());
                }
                // fs is 1..=6 ASCII digits (checked above), so this
                // cannot overflow; map_err keeps the path unwrap-free.
                frac = fs.parse::<i64>().map_err(|_| bad())? * 10i64.pow(6 - fs.len() as u32);
            }
        }
        if h > 23 || mi > 59 || sec > 60 {
            return Err(bad());
        }
        usecs += h * USECS_PER_HOUR + mi * USECS_PER_MIN + sec * USECS_PER_SEC + frac;
    }

    // Optional timezone.
    if i < bytes.len() {
        match bytes[i] {
            b'Z' | b'z' => i += 1,
            b'+' | b'-' => {
                let sign = if bytes[i] == b'+' { 1 } else { -1 };
                i += 1;
                let oh = read_num(&mut i, 2).ok_or_else(bad)?;
                let mut om = 0;
                if i < bytes.len() && bytes[i] == b':' {
                    i += 1;
                    om = read_num(&mut i, 2).ok_or_else(bad)?;
                }
                usecs -= sign * (oh * USECS_PER_HOUR + om * USECS_PER_MIN);
            }
            _ => {}
        }
    }
    if i != bytes.len() {
        return Err(bad());
    }
    Ok(TimestampTz(usecs))
}

/// Parse a date: `YYYY-MM-DD`.
pub fn parse_date(s: &str) -> TemporalResult<Date> {
    let ts = parse_timestamp(s.trim())?;
    if ts.0.rem_euclid(USECS_PER_DAY) != 0 {
        return Err(TemporalError::Parse(format!("invalid date {s:?}")));
    }
    Ok(ts.date())
}

/// Parse a Postgres-style interval: sequences of `<number> <unit>` with
/// units `us(ec)|ms|second|minute|hour|day|week|month|year` (plural or
/// abbreviated), e.g. `1 day`, `2 hours 30 minutes`, `5 minutes`.
pub fn parse_interval(s: &str) -> TemporalResult<Interval> {
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid interval {s:?}"));
    let mut iv = Interval::ZERO;
    let mut toks = s.split_whitespace().peekable();
    let mut any = false;
    while let Some(tok) = toks.next() {
        // Allow "<n><unit>" glued (e.g. "5min") or separate tokens.
        let (num_str, unit_inline) = split_num_unit(tok);
        let n: f64 = num_str.parse().map_err(|_| bad())?;
        let unit = if !unit_inline.is_empty() {
            unit_inline.to_string()
        } else {
            toks.next().ok_or_else(bad)?.to_ascii_lowercase()
        };
        let unit = unit.trim_end_matches('s');
        match unit {
            "year" | "yr" | "y" => iv.months += (n * 12.0) as i32,
            "month" | "mon" => iv.months += n as i32,
            "week" | "w" => iv.days += (n * 7.0) as i32,
            "day" | "d" => {
                iv.days += n.trunc() as i32;
                iv.usecs += (n.fract() * USECS_PER_DAY as f64).round() as i64;
            }
            "hour" | "hr" | "h" => iv.usecs += (n * USECS_PER_HOUR as f64).round() as i64,
            "minute" | "min" | "m" => iv.usecs += (n * USECS_PER_MIN as f64).round() as i64,
            "second" | "sec" => iv.usecs += (n * USECS_PER_SEC as f64).round() as i64,
            "millisecond" | "msec" | "ms" => iv.usecs += (n * 1_000.0).round() as i64,
            "microsecond" | "usec" | "us" => iv.usecs += n.round() as i64,
            _ => return Err(bad()),
        }
        any = true;
    }
    if !any {
        return Err(bad());
    }
    Ok(iv)
}

fn split_num_unit(tok: &str) -> (&str, &str) {
    let idx = tok
        .char_indices()
        .find(|(i, c)| c.is_ascii_alphabetic() && *i > 0)
        .map(|(i, _)| i)
        .unwrap_or(tok.len());
    (&tok[..idx], tok[idx..].trim_start_matches(' '))
}

// ---------------------------------------------------------------- printing

impl fmt::Display for TimestampTz {
    /// MobilityDB / Postgres style: `2025-01-01 00:00:00+00`, with
    /// microseconds only when non-zero.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.0.div_euclid(USECS_PER_DAY);
        let tod = self.0.rem_euclid(USECS_PER_DAY);
        let (y, mo, d) = civil_from_days(days);
        let h = tod / USECS_PER_HOUR;
        let mi = (tod / USECS_PER_MIN) % 60;
        let s = (tod / USECS_PER_SEC) % 60;
        let us = tod % USECS_PER_SEC;
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")?;
        if us != 0 {
            let frac = format!("{us:06}");
            write!(f, ".{}", frac.trim_end_matches('0'))?;
        }
        write!(f, "+00")
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = civil_from_days(self.0 as i64);
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl fmt::Display for Interval {
    /// Postgres-ish: `1 year 2 mons 3 days 04:05:06`, omitting zero parts
    /// (`00:00:00` when everything is zero).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let iv = self.justified();
        let mut wrote = false;
        let years = iv.months / 12;
        let months = iv.months % 12;
        if years != 0 {
            write!(f, "{years} year{}", if years.abs() == 1 { "" } else { "s" })?;
            wrote = true;
        }
        if months != 0 {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "{months} mon{}", if months.abs() == 1 { "" } else { "s" })?;
            wrote = true;
        }
        if iv.days != 0 {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "{} day{}", iv.days, if iv.days.abs() == 1 { "" } else { "s" })?;
            wrote = true;
        }
        if iv.usecs != 0 || !wrote {
            if wrote {
                write!(f, " ")?;
            }
            let neg = iv.usecs < 0;
            let us = iv.usecs.abs();
            let h = us / USECS_PER_HOUR;
            let mi = (us / USECS_PER_MIN) % 60;
            let s = (us / USECS_PER_SEC) % 60;
            let frac = us % USECS_PER_SEC;
            if neg {
                write!(f, "-")?;
            }
            write!(f, "{h:02}:{mi:02}:{s:02}")?;
            if frac != 0 {
                let fs = format!("{frac:06}");
                write!(f, ".{}", fs.trim_end_matches('0'))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip() {
        for z in [-719_468, -1, 0, 1, 18_992, 20_000, 30_000] {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2025, 1, 1), 20_089);
        assert_eq!(civil_from_days(20_089), (2025, 1, 1));
    }

    #[test]
    fn parse_and_print_timestamps() {
        let t = parse_timestamp("2025-01-01").unwrap();
        assert_eq!(t.to_string(), "2025-01-01 00:00:00+00");
        let t = parse_timestamp("2025-08-11 12:00:00").unwrap();
        assert_eq!(t.to_string(), "2025-08-11 12:00:00+00");
        let t = parse_timestamp("2025-01-01 10:30:15.5").unwrap();
        assert_eq!(t.to_string(), "2025-01-01 10:30:15.5+00");
        let t = parse_timestamp("2025-01-01 12:00:00+02").unwrap();
        assert_eq!(t.to_string(), "2025-01-01 10:00:00+00");
        let t = parse_timestamp("2025-01-01T00:00:00Z").unwrap();
        assert_eq!(t.to_string(), "2025-01-01 00:00:00+00");
        let t = parse_timestamp("2025-01-01 05:00:00-05:30").unwrap();
        assert_eq!(t.to_string(), "2025-01-01 10:30:00+00");
    }

    #[test]
    fn bad_timestamps_rejected() {
        for s in ["", "2025", "2025-13-01", "2025-02-30", "2025-01-01 25:00", "x", "2025-01-01x"] {
            assert!(parse_timestamp(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn date_parse_print() {
        let d = parse_date("2025-06-15").unwrap();
        assert_eq!(d.to_string(), "2025-06-15");
        assert_eq!(d.at_midnight(), parse_timestamp("2025-06-15").unwrap());
        assert!(parse_date("2025-06-15 10:00:00").is_err());
    }

    #[test]
    fn interval_parse_variants() {
        assert_eq!(parse_interval("1 day").unwrap(), Interval::from_days(1));
        assert_eq!(
            parse_interval("2 hours 30 minutes").unwrap(),
            Interval::from_usecs(2 * USECS_PER_HOUR + 30 * USECS_PER_MIN)
        );
        assert_eq!(parse_interval("1 week").unwrap(), Interval::from_days(7));
        assert_eq!(parse_interval("5 minutes").unwrap().usecs, 5 * USECS_PER_MIN);
        assert_eq!(parse_interval("1 year").unwrap().months, 12);
        assert_eq!(parse_interval("1.5 days").unwrap().usecs, USECS_PER_DAY / 2);
        assert!(parse_interval("").is_err());
        assert!(parse_interval("five days").is_err());
    }

    #[test]
    fn interval_print() {
        assert_eq!(Interval::from_days(2).to_string(), "2 days");
        assert_eq!(Interval::from_usecs(USECS_PER_HOUR).to_string(), "01:00:00");
        assert_eq!(
            (Interval { months: 14, days: 1, usecs: USECS_PER_MIN }).to_string(),
            "1 year 2 mons 1 day 00:01:00"
        );
        assert_eq!(Interval::ZERO.to_string(), "00:00:00");
        // Justification folds 25h into 1 day 1h.
        assert_eq!(Interval::from_usecs(25 * USECS_PER_HOUR).to_string(), "1 day 01:00:00");
    }

    #[test]
    fn timestamp_interval_arithmetic() {
        let t = parse_timestamp("2025-01-31").unwrap();
        let plus_month = t.add_interval(&Interval { months: 1, days: 0, usecs: 0 });
        assert_eq!(plus_month.to_string(), "2025-02-28 00:00:00+00"); // clamped
        let plus_day = t.add_interval(&Interval::from_days(1));
        assert_eq!(plus_day.to_string(), "2025-02-01 00:00:00+00");
        assert_eq!(plus_day.sub_interval(&Interval::from_days(1)), t);
        let diff = plus_day - t;
        assert_eq!(diff.usecs, USECS_PER_DAY);
    }

    #[test]
    fn leap_year_handling() {
        let t = parse_timestamp("2024-02-29").unwrap();
        assert_eq!(t.to_string(), "2024-02-29 00:00:00+00");
        assert!(parse_timestamp("2025-02-29").is_err());
        let plus_year = t.add_interval(&Interval { months: 12, days: 0, usecs: 0 });
        assert_eq!(plus_year.to_string(), "2025-02-28 00:00:00+00");
    }
}
