//! The `set` template type: an ordered set of distinct base values
//! (`intset`, `bigintset`, `floatset`, `textset`, `dateset`, `tstzset`,
//! `geomset`).

use std::cmp::Ordering;
use std::fmt;

use mduck_geo::{wkb, wkt, Geometry};

use crate::error::{TemporalError, TemporalResult};
use crate::span::{Span, SpanValue};
use crate::time::{Date, TimestampTz};

/// A base type over which sets can be built. Broader than [`SpanValue`]
/// because sets also exist for text and geometry.
pub trait SetValue: Clone + PartialEq + fmt::Debug {
    fn cmp_set(&self, other: &Self) -> Ordering;
    /// Parse one element (the parser has already isolated the token).
    fn parse_element(s: &str) -> TemporalResult<Self>;
    fn write_element(&self, out: &mut String);
}

macro_rules! set_value_via_span {
    ($t:ty) => {
        impl SetValue for $t {
            fn cmp_set(&self, other: &Self) -> Ordering {
                SpanValue::cmp_v(self, other)
            }
            fn parse_element(s: &str) -> TemporalResult<Self> {
                <$t as SpanValue>::parse_value(s)
            }
            fn write_element(&self, out: &mut String) {
                SpanValue::write_value(self, out)
            }
        }
    };
}

set_value_via_span!(i64);
set_value_via_span!(f64);
set_value_via_span!(Date);
set_value_via_span!(TimestampTz);

impl SetValue for String {
    fn cmp_set(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
    fn parse_element(s: &str) -> TemporalResult<Self> {
        let s = s.trim();
        if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
            Ok(s[1..s.len() - 1].replace("\\\"", "\""))
        } else {
            Ok(s.to_string())
        }
    }
    fn write_element(&self, out: &mut String) {
        out.push('"');
        out.push_str(&self.replace('"', "\\\""));
        out.push('"');
    }
}

impl SetValue for Geometry {
    fn cmp_set(&self, other: &Self) -> Ordering {
        // Deterministic total order via the WKB encoding.
        wkb::to_wkb(self).cmp(&wkb::to_wkb(other))
    }
    fn parse_element(s: &str) -> TemporalResult<Self> {
        let s = s.trim();
        let s = s.strip_prefix('"').and_then(|t| t.strip_suffix('"')).unwrap_or(s);
        Ok(wkt::parse_wkt(s)?)
    }
    fn write_element(&self, out: &mut String) {
        out.push('"');
        out.push_str(&wkt::to_wkt(self, None));
        out.push('"');
    }
}

/// An ordered set of distinct values of `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Set<T: SetValue> {
    values: Vec<T>,
}

/// `intset` / `bigintset`.
pub type IntSet = Set<i64>;
/// `floatset`.
pub type FloatSet = Set<f64>;
/// `textset`.
pub type TextSet = Set<String>;
/// `dateset`.
pub type DateSet = Set<Date>;
/// `tstzset`.
pub type TstzSet = Set<TimestampTz>;
/// `geomset` (SRID carried by the member geometries).
pub type GeomSet = Set<Geometry>;

impl<T: SetValue> Set<T> {
    /// Build from arbitrary values: sorts and deduplicates.
    pub fn new(mut values: Vec<T>) -> TemporalResult<Self> {
        if values.is_empty() {
            return Err(TemporalError::Invalid("set must be non-empty".into()));
        }
        values.sort_by(|a, b| a.cmp_set(b));
        values.dedup_by(|a, b| a == b);
        Ok(Set { values })
    }

    /// The ordered values.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        false // construction guarantees non-emptiness
    }

    pub fn start_value(&self) -> &T {
        &self.values[0]
    }

    pub fn end_value(&self) -> &T {
        self.values.last().unwrap()
    }

    pub fn contains(&self, v: &T) -> bool {
        self.values.binary_search_by(|x| x.cmp_set(v)).is_ok()
    }

    /// Set union.
    pub fn union(&self, other: &Set<T>) -> Set<T> {
        let mut vals = self.values.clone();
        vals.extend(other.values.iter().cloned());
        Set::new(vals).expect("non-empty by construction")
    }

    /// Set intersection (`None` when empty).
    pub fn intersection(&self, other: &Set<T>) -> Option<Set<T>> {
        let vals: Vec<T> =
            self.values.iter().filter(|v| other.contains(v)).cloned().collect();
        Set::new(vals).ok()
    }

    /// Set difference (`None` when empty).
    pub fn minus(&self, other: &Set<T>) -> Option<Set<T>> {
        let vals: Vec<T> =
            self.values.iter().filter(|v| !other.contains(v)).cloned().collect();
        Set::new(vals).ok()
    }

    /// Rough in-memory footprint in bytes (the paper's `memSize`).
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.values.len() * std::mem::size_of::<T>()
    }

    /// Map values, then renormalize.
    pub fn map(&self, f: impl Fn(&T) -> T) -> Set<T> {
        Set::new(self.values.iter().map(f).collect()).expect("non-empty")
    }
}

impl<T: SetValue + SpanValue> Set<T> {
    /// Bounding span of the set.
    pub fn to_span(&self) -> Span<T> {
        Span::new(*self.start_value(), *self.end_value(), true, true)
            .expect("ordered set bounds are a valid span")
    }

    /// Shift every element by `delta`.
    pub fn shift(&self, delta: T::Delta) -> Set<T> {
        self.map(|v| v.add_delta(delta))
    }

    /// Shift then rescale so the full width becomes `new_width` (in the
    /// double domain), anchored at the (shifted) start. Mirrors MEOS
    /// `shiftScale`.
    pub fn shift_scale(&self, delta: Option<T::Delta>, new_width: Option<f64>) -> TemporalResult<Set<T>> {
        let shifted = match delta {
            Some(d) => self.shift(d),
            None => self.clone(),
        };
        let Some(w) = new_width else { return Ok(shifted) };
        if w <= 0.0 {
            return Err(TemporalError::Invalid("scale width must be positive".into()));
        }
        let lo = shifted.start_value().to_double();
        let hi = shifted.end_value().to_double();
        let old_w = hi - lo;
        if old_w == 0.0 {
            return Ok(shifted);
        }
        Ok(shifted.map(|v| T::from_double(lo + (v.to_double() - lo) / old_w * w)))
    }
}

impl<T: SetValue> fmt::Display for Set<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::from("{");
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            v.write_element(&mut s);
        }
        s.push('}');
        f.write_str(&s)
    }
}

impl GeomSet {
    /// SRID of the members (0 when unset); members are kept consistent.
    pub fn srid(&self) -> i32 {
        self.values().iter().map(|g| g.srid).find(|s| *s != 0).unwrap_or(0)
    }

    /// EWKT rendering with SRID prefix, as `asEWKT(geomset)` prints:
    /// `SRID=4326;{"POINT(...)", "POINT(...)"}`.
    pub fn as_ewkt(&self, decimals: Option<usize>) -> String {
        let srid = self.srid();
        let body: Vec<String> = self
            .values()
            .iter()
            .map(|g| format!("\"{}\"", wkt::to_wkt(g, decimals)))
            .collect();
        if srid != 0 {
            format!("SRID={};{{{}}}", srid, body.join(", "))
        } else {
            format!("{{{}}}", body.join(", "))
        }
    }

    /// Transform every member to a new SRID.
    pub fn transform(&self, to_srid: i32) -> TemporalResult<GeomSet> {
        let vals: TemporalResult<Vec<Geometry>> = self
            .values()
            .iter()
            .map(|g| mduck_geo::transform::transform(g, to_srid).map_err(Into::into))
            .collect();
        Set::new(vals?)
    }
}

/// Parse a set literal `{v1, v2, ...}`. Elements are split on top-level
/// commas (commas inside quotes or parentheses don't count), so geometry
/// WKT members parse correctly. A leading `SRID=n;` applies to every
/// geometry member.
pub fn parse_set<T: SetValue>(s: &str) -> TemporalResult<Set<T>> {
    let (body, _srid) = split_srid_prefix(s.trim());
    parse_set_inner(body, None)
}

/// Parse a `geomset` literal, honouring a leading `SRID=n;`.
pub fn parse_geomset(s: &str) -> TemporalResult<GeomSet> {
    let (body, srid) = split_srid_prefix(s.trim());
    let set: GeomSet = parse_set_inner(body, None)?;
    match srid {
        Some(srid) => Set::new(
            set.values()
                .iter()
                .map(|g| {
                    if g.srid == 0 {
                        g.clone().with_srid(srid)
                    } else {
                        g.clone()
                    }
                })
                .collect(),
        ),
        None => Ok(set),
    }
}

pub(crate) fn split_srid_prefix(s: &str) -> (&str, Option<i32>) {
    // Checked slice: byte 5 of arbitrary input may fall inside a
    // multi-byte character, where `s[..5]` would panic.
    if s.get(..5).is_some_and(|p| p.eq_ignore_ascii_case("srid=")) {
        if let Some(semi) = s.find(';') {
            if let Ok(v) = s[5..semi].trim().parse::<i32>() {
                return (s[semi + 1..].trim_start(), Some(v));
            }
        }
    }
    (s, None)
}

fn parse_set_inner<T: SetValue>(s: &str, _hint: Option<()>) -> TemporalResult<Set<T>> {
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid set {s:?}"));
    if !s.starts_with('{') || !s.ends_with('}') {
        return Err(bad());
    }
    let inner = &s[1..s.len() - 1];
    let parts = split_top_level(inner);
    if parts.is_empty() {
        return Err(bad());
    }
    let vals: TemporalResult<Vec<T>> = parts.iter().map(|p| T::parse_element(p)).collect();
    Set::new(vals?)
}

/// Split on commas that are not nested inside parentheses or double quotes.
pub(crate) fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_quotes = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '(' | '[' | '{' if !in_quotes => depth += 1,
            ')' | ']' | '}' if !in_quotes => depth = depth.saturating_sub(1),
            ',' if depth == 0 && !in_quotes => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = s[start..].trim();
    if !last.is_empty() {
        parts.push(last);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intset_sorted_dedup() {
        let s: IntSet = parse_set("{3, 1, 2, 3}").unwrap();
        assert_eq!(s.values(), &[1, 2, 3]);
        assert_eq!(s.to_string(), "{1, 2, 3}");
        assert!(s.contains(&2));
        assert!(!s.contains(&4));
    }

    #[test]
    fn empty_set_rejected() {
        assert!(parse_set::<i64>("{}").is_err());
        assert!(parse_set::<i64>("1,2").is_err());
    }

    #[test]
    fn textset_quoting() {
        let s: TextSet = parse_set(r#"{"b", "a", "with, comma"}"#).unwrap();
        assert_eq!(s.values(), &["a".to_string(), "b".into(), "with, comma".into()]);
        assert_eq!(s.to_string(), r#"{"a", "b", "with, comma"}"#);
    }

    #[test]
    fn tstzset_parse_print() {
        let s: TstzSet = parse_set("{2025-01-01, 2025-01-03, 2025-01-02}").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.start_value().to_string(), "2025-01-01 00:00:00+00");
        assert_eq!(s.end_value().to_string(), "2025-01-03 00:00:00+00");
        assert_eq!(s.to_span().duration().to_string(), "2 days");
    }

    #[test]
    fn set_algebra_ops() {
        let a: IntSet = parse_set("{1, 2, 3}").unwrap();
        let b: IntSet = parse_set("{3, 4}").unwrap();
        assert_eq!(a.union(&b).values(), &[1, 2, 3, 4]);
        assert_eq!(a.intersection(&b).unwrap().values(), &[3]);
        assert_eq!(a.minus(&b).unwrap().values(), &[1, 2]);
        assert!(b.minus(&b).is_none());
    }

    #[test]
    fn shift_scale_matches_meos_semantics() {
        // Paper §3.5: shiftScale of a tstzset by (1 day, 1 hour):
        // values move 1 day, then the whole set is compressed to 1 hour.
        let s: TstzSet = parse_set("{2025-01-01, 2025-01-02, 2025-01-03}").unwrap();
        let shifted = s
            .shift_scale(
                Some(crate::time::Interval::from_days(1)),
                Some(crate::time::USECS_PER_HOUR as f64),
            )
            .unwrap();
        assert_eq!(
            shifted.to_string(),
            "{2025-01-02 00:00:00+00, 2025-01-02 00:30:00+00, 2025-01-02 01:00:00+00}"
        );
    }

    #[test]
    fn geomset_parse_transform() {
        let s = parse_geomset("SRID=4326;{Point(2.340088 49.400250), Point(6.575317 51.553167)}")
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.srid(), 4326);
        let t = s.transform(3812).unwrap();
        let ewkt = t.as_ewkt(Some(6));
        assert!(ewkt.starts_with("SRID=3812;{\"POINT("), "{ewkt}");
        // Paper §3.5 prints these coordinates (we allow sub-metre slack).
        assert!(ewkt.contains("502773.42"), "{ewkt}");
        assert!(ewkt.contains("803028.9"), "{ewkt}");
    }

    #[test]
    fn floatset_shift() {
        let s: FloatSet = parse_set("{1.5, 2.5}").unwrap();
        assert_eq!(s.shift(1.0).values(), &[2.5, 3.5]);
        assert!(s.mem_size() > 0);
    }

    #[test]
    fn split_top_level_nesting() {
        assert_eq!(split_top_level("a, (b, c), d"), vec!["a", "(b, c)", "d"]);
        assert_eq!(split_top_level(r#""x, y", z"#), vec![r#""x, y""#, "z"]);
        assert_eq!(split_top_level("[1, 2], [3, 4]"), vec!["[1, 2]", "[3, 4]"]);
    }
}
