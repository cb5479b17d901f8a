//! Parsing of temporal literals in the MobilityDB grammar:
//!
//! ```text
//! 1@2025-01-01                                      -- instant
//! {1@2025-01-01, 2@2025-01-02}                      -- discrete sequence
//! [1@2025-01-01, 2@2025-01-02)                      -- continuous sequence
//! Interp=Step;[1.0@2025-01-01, 2.0@2025-01-02]      -- step tfloat
//! {[...], [...]}                                    -- sequence set
//! SRID=4326;{[Point(1 1)@2025-01-01, ...]}          -- tgeompoint
//! ```

use crate::error::{TemporalError, TemporalResult};
use crate::set::{split_srid_prefix, split_top_level};
use crate::temporal::{Interp, TInstant, TSequence, TSequenceSet, TValue, Temporal};
use crate::time::parse_timestamp;

/// Parse any temporal literal; returns the value plus the SRID prefix when
/// one was present (meaningful for `tgeompoint`).
pub fn parse_temporal<V: TValue>(input: &str) -> TemporalResult<(Temporal<V>, Option<i32>)> {
    let s = input.trim();
    let (s, srid) = split_srid_prefix(s);
    let (s, interp_override) = split_interp_prefix(s);
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid temporal literal {input:?}"));

    let t = if s.starts_with('{') {
        if !s.ends_with('}') {
            return Err(bad());
        }
        let inner = &s[1..s.len() - 1];
        let parts = split_top_level(inner);
        if parts.is_empty() {
            return Err(bad());
        }
        if parts[0].starts_with('[') || parts[0].starts_with('(') {
            // Sequence set.
            let interp = interp_override.unwrap_or_else(V::default_interp);
            let seqs: TemporalResult<Vec<TSequence<V>>> =
                parts.iter().map(|p| parse_sequence(p, interp)).collect();
            let seqs = seqs?;
            if seqs.len() == 1 {
                Temporal::Sequence(seqs.into_iter().next().unwrap())
            } else {
                Temporal::SequenceSet(TSequenceSet::new(seqs)?)
            }
        } else {
            // Discrete sequence.
            let instants: TemporalResult<Vec<TInstant<V>>> =
                parts.iter().map(|p| parse_instant(p)).collect();
            let instants = instants?;
            if instants.len() == 1 {
                Temporal::Instant(instants.into_iter().next().unwrap())
            } else {
                Temporal::Sequence(TSequence::discrete(instants)?)
            }
        }
    } else if s.starts_with('[') || s.starts_with('(') {
        let interp = interp_override.unwrap_or_else(V::default_interp);
        Temporal::Sequence(parse_sequence(s, interp)?)
    } else {
        Temporal::Instant(parse_instant(s)?)
    };
    Ok((t, srid))
}

fn split_interp_prefix(s: &str) -> (&str, Option<Interp>) {
    let trimmed = s.trim_start();
    let lower = trimmed.to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix("interp=") {
        if let Some(semi) = rest.find(';') {
            let word = rest[..semi].trim();
            let interp = match word {
                "step" => Some(Interp::Step),
                "linear" => Some(Interp::Linear),
                "discrete" => Some(Interp::Discrete),
                _ => None,
            };
            if interp.is_some() {
                // +7 for "interp=", +1 for ';'
                return (&trimmed[7 + semi + 1..], interp);
            }
        }
    }
    (s, None)
}

fn parse_sequence<V: TValue>(s: &str, interp: Interp) -> TemporalResult<TSequence<V>> {
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid sequence {s:?}"));
    let lower_inc = match s.chars().next() {
        Some('[') => true,
        Some('(') => false,
        _ => return Err(bad()),
    };
    let upper_inc = match s.chars().last() {
        Some(']') => true,
        Some(')') => false,
        _ => return Err(bad()),
    };
    let inner = &s[1..s.len() - 1];
    let parts = split_top_level(inner);
    if parts.is_empty() {
        return Err(bad());
    }
    let instants: TemporalResult<Vec<TInstant<V>>> =
        parts.iter().map(|p| parse_instant(p)).collect();
    TSequence::new(instants?, lower_inc, upper_inc, interp)
}

fn parse_instant<V: TValue>(s: &str) -> TemporalResult<TInstant<V>> {
    let s = s.trim();
    let at = find_value_separator(s)
        .ok_or_else(|| TemporalError::Parse(format!("missing '@' in instant {s:?}")))?;
    let value = V::parse_tvalue(s[..at].trim())?;
    let t = parse_timestamp(s[at + 1..].trim())?;
    Ok(TInstant::new(value, t))
}

/// Index of the `@` separating value from timestamp: the last `@` that is
/// not inside double quotes (text values may contain `@`).
fn find_value_separator(s: &str) -> Option<usize> {
    let mut in_quotes = false;
    let mut result = None;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '@' if !in_quotes => result = Some(i),
            _ => {}
        }
    }
    result
}

/// Typed convenience parser for `tbool`.
pub fn parse_tbool(s: &str) -> TemporalResult<Temporal<bool>> {
    parse_temporal(s).map(|(t, _)| t)
}

/// Typed convenience parser for `tint`.
pub fn parse_tint(s: &str) -> TemporalResult<Temporal<i64>> {
    parse_temporal(s).map(|(t, _)| t)
}

/// Typed convenience parser for `tfloat`.
pub fn parse_tfloat(s: &str) -> TemporalResult<Temporal<f64>> {
    parse_temporal(s).map(|(t, _)| t)
}

/// Typed convenience parser for `ttext`.
pub fn parse_ttext(s: &str) -> TemporalResult<Temporal<String>> {
    parse_temporal(s).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_instant_forms() {
        let t = parse_tint("1@2025-01-01").unwrap();
        assert_eq!(t.to_string(), "1@2025-01-01 00:00:00+00");
        let t = parse_tbool("t@2025-01-01 12:00:00").unwrap();
        assert!(t.start_value());
        let t = parse_ttext(r#""hello @ there"@2025-01-01"#).unwrap();
        assert_eq!(t.start_value(), "hello @ there");
    }

    #[test]
    fn parse_discrete_sequence() {
        // The paper's §3.5 duration example literal.
        let t = parse_tint("{1@2025-01-01, 2@2025-01-02, 1@2025-01-03}").unwrap();
        assert_eq!(t.num_instants(), 3);
        assert_eq!(t.duration(true).to_string(), "2 days");
        assert_eq!(
            t.to_string(),
            "{1@2025-01-01 00:00:00+00, 2@2025-01-02 00:00:00+00, 1@2025-01-03 00:00:00+00}"
        );
    }

    #[test]
    fn parse_continuous_sequence() {
        let t = parse_tfloat("[1.5@2025-01-01, 2.5@2025-01-02)").unwrap();
        match &t {
            Temporal::Sequence(s) => {
                assert!(s.lower_inc);
                assert!(!s.upper_inc);
                assert_eq!(s.interp, Interp::Linear);
            }
            _ => panic!("expected sequence"),
        }
        assert_eq!(t.to_string(), "[1.5@2025-01-01 00:00:00+00, 2.5@2025-01-02 00:00:00+00)");
    }

    #[test]
    fn parse_step_prefix() {
        let t = parse_tfloat("Interp=Step;[1@2025-01-01, 2@2025-01-02]").unwrap();
        assert_eq!(t.interp(), Interp::Step);
        assert!(t.to_string().starts_with("Interp=Step;["));
        // tint is step by default: no prefix needed or printed.
        let t = parse_tint("[1@2025-01-01, 2@2025-01-02]").unwrap();
        assert_eq!(t.interp(), Interp::Step);
        assert!(!t.to_string().contains("Interp"));
    }

    #[test]
    fn parse_sequence_set() {
        let t = parse_tfloat("{[1@2025-01-01, 2@2025-01-02], [5@2025-01-04, 5@2025-01-05]}")
            .unwrap();
        match &t {
            Temporal::SequenceSet(ss) => assert_eq!(ss.sequences().len(), 2),
            _ => panic!("expected sequence set"),
        }
        // A one-sequence set collapses to a sequence.
        let t = parse_tfloat("{[1@2025-01-01, 2@2025-01-02]}").unwrap();
        assert!(matches!(t, Temporal::Sequence(_)));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_tint("").is_err());
        assert!(parse_tint("1").is_err());
        assert!(parse_tint("{1@2025-01-01").is_err());
        assert!(parse_tint("[2@2025-01-02, 1@2025-01-01]").is_err());
        assert!(parse_tbool("x@2025-01-01").is_err());
    }

    #[test]
    fn roundtrip_printing() {
        for lit in [
            "1@2025-01-01 00:00:00+00",
            "{1@2025-01-01 00:00:00+00, 2@2025-01-02 00:00:00+00}",
            "[1.5@2025-01-01 00:00:00+00, 2.5@2025-01-02 00:00:00+00)",
            "{[1@2025-01-01 00:00:00+00, 2@2025-01-02 00:00:00+00], [5@2025-01-04 00:00:00+00, 5@2025-01-05 00:00:00+00]}",
        ] {
            let (t, _) = parse_temporal::<f64>(lit).unwrap();
            assert_eq!(t.to_string(), lit);
        }
    }
}
