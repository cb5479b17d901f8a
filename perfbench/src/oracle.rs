//! The correctness oracle: canonical result digests, with the row engine
//! (`mduck-rowdb`) answering the same SQL on the same data. Oracle work
//! always runs outside the timed regions.

use berlinmod::BerlinModData;
use mduck_sql::Value;

/// Order-insensitive digest of a result: every row rendered as text, the
/// rows sorted, then FNV-1a over the lot.
pub fn digest(rows: &[Vec<Value>]) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\u{1f}")
        })
        .collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h ^ lines.len() as u64
}

/// Damage a result the way a wrong answer would: change one cell, or
/// invent a row when there is none. Used by the self-check to prove the
/// oracle notices.
pub fn corrupt(rows: &mut Vec<Vec<Value>>) {
    match rows.first_mut().and_then(|r| r.first_mut()) {
        Some(cell) => *cell = Value::text("corrupted"),
        None => rows.push(vec![Value::text("corrupted")]),
    }
}

/// The row engine loaded with the same data, with the B-tree and GiST
/// indexes of the paper's "MobilityDB with indexes" scenario.
pub fn row_engine(data: &BerlinModData) -> Result<mduck_rowdb::RowDatabase, String> {
    let db = crate::data::new_row();
    data.load_into_row(&db, true)
        .map_err(|e| format!("loading the row engine: {e}"))?;
    Ok(db)
}

/// Run `f` on every dataset, two at a time (the row engine is serial).
pub fn per_dataset<T: Send>(
    datasets: &[BerlinModData],
    f: impl Fn(&BerlinModData) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(datasets.len());
    for pair in datasets.chunks(2) {
        let results: Vec<Result<T, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = pair.iter().map(|d| s.spawn(|| f(d))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("oracle thread panicked".to_string()))
                })
                .collect()
        });
        for r in results {
            out.push(r?);
        }
    }
    Ok(out)
}

/// The oracle's digest for one statement.
pub fn row_digest(db: &mduck_rowdb::RowDatabase, sql: &str) -> Result<u64, String> {
    db.execute(sql)
        .map(|r| digest(&r.rows))
        .map_err(|e| format!("row engine failed: {e}\n{sql}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_and_sees_corruption() {
        let a = vec![
            vec![Value::Int(1), Value::text("x")],
            vec![Value::Int(2), Value::text("y")],
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(digest(&a), digest(&b));
        let mut c = a.clone();
        corrupt(&mut c);
        assert_ne!(digest(&a), digest(&c));
        let mut empty: Vec<Vec<Value>> = Vec::new();
        corrupt(&mut empty);
        assert_ne!(digest(&empty), digest(&[]));
    }
}
