//! Temporal aggregates: `extent`, `tcount`, and the `tgeompointseq`
//! sequence-building aggregate the §6.2 data-preparation pipeline uses to
//! fold per-observation instants into trip sequences.

use mduck_geo::point::Point;
use mduck_sql::{AggState, LogicalType, Registry, SqlResult, Value};
use mduck_temporal::temporal::{Interp, TGeomPoint, TInstant, TSequence, Temporal};
use mduck_temporal::temporal::{ExtentAgg, TCountAgg};

use crate::types::{lt, to_exec, value_to_stbox, value_to_tgeom, value_to_ts, MdStbox, MdTGeomPoint, MdTInt};

struct ExtentState {
    agg: ExtentAgg,
}

impl AggState for ExtentState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if args[0].is_null() {
            return Ok(());
        }
        let b = value_to_stbox(&args[0])?;
        self.agg.add_stbox(&b).map_err(to_exec)
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        Ok(match self.agg.finish() {
            Some(b) => MdStbox(b).into_value(),
            None => Value::Null,
        })
    }
}

struct TCountState {
    agg: TCountAgg,
}

impl AggState for TCountState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if args[0].is_null() {
            return Ok(());
        }
        let t = value_to_tgeom(&args[0])?;
        self.agg.add_temporal(&t.temp);
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        Ok(match self.agg.finish() {
            Some(t) => MdTInt(t).into_value(),
            None => Value::Null,
        })
    }
}

/// Builds a linear `tgeompoint` sequence from instant observations
/// (`tgeompointseq(tgeompoint-instant)`); unordered input is sorted.
struct SeqBuildState {
    instants: Vec<TInstant<Point>>,
    srid: i32,
}

impl AggState for SeqBuildState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if args[0].is_null() {
            return Ok(());
        }
        let t = value_to_tgeom(&args[0])?;
        if self.srid == 0 {
            self.srid = t.srid();
        }
        for i in t.temp.instants() {
            self.instants.push(*i);
        }
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        if self.instants.is_empty() {
            return Ok(Value::Null);
        }
        let mut instants = std::mem::take(&mut self.instants);
        instants.sort_by_key(|i| i.t);
        instants.dedup_by(|a, b| a.t == b.t);
        let seq = TSequence::new(instants, true, true, Interp::Linear).map_err(to_exec)?;
        Ok(MdTGeomPoint(TGeomPoint::new(Temporal::Sequence(seq), self.srid)).into_value())
    }
}

/// Builds a linear trip from raw (x, y, t) observations:
/// `tgeompointseq_xy(x, y, t)` — the load path BerlinMOD uses.
struct SeqBuildXyState {
    samples: Vec<(TInstant<Point>,)>,
}

impl AggState for SeqBuildXyState {
    fn update(&mut self, args: &[Value]) -> SqlResult<()> {
        if args.iter().any(Value::is_null) {
            return Ok(());
        }
        let p = Point::new(args[0].as_float()?, args[1].as_float()?);
        self.samples.push((TInstant::new(p, value_to_ts(&args[2])?),));
        Ok(())
    }
    fn finalize(&mut self) -> SqlResult<Value> {
        if self.samples.is_empty() {
            return Ok(Value::Null);
        }
        let mut instants: Vec<TInstant<Point>> =
            std::mem::take(&mut self.samples).into_iter().map(|(i,)| i).collect();
        instants.sort_by_key(|i| i.t);
        instants.dedup_by(|a, b| a.t == b.t);
        let seq = TSequence::new(instants, true, true, Interp::Linear).map_err(to_exec)?;
        Ok(MdTGeomPoint(TGeomPoint::new(Temporal::Sequence(seq), 0)).into_value())
    }
}

/// Register the temporal aggregates.
pub fn register_aggregates(reg: &mut Registry) {
    for src in [lt("stbox"), lt("tgeompoint"), lt("tgeometry")] {
        reg.register_aggregate("extent", vec![src], lt("stbox"), || {
            Box::new(ExtentState { agg: ExtentAgg::new() })
        });
    }
    for src in [lt("tgeompoint"), lt("tgeometry")] {
        reg.register_aggregate("tcount", vec![src.clone()], lt("tint"), || {
            Box::new(TCountState { agg: TCountAgg::new() })
        });
        reg.register_aggregate("tgeompointseq", vec![src], lt("tgeompoint"), || {
            Box::new(SeqBuildState { instants: Vec::new(), srid: 0 })
        });
    }
    reg.register_aggregate(
        "tgeompointseq_xy",
        vec![LogicalType::Float, LogicalType::Float, LogicalType::Timestamp],
        lt("tgeompoint"),
        || Box::new(SeqBuildXyState { samples: Vec::new() }),
    );
}
