//! Statement templates: what a statement's literals become when it is
//! parsed and bound as the template of its [`Shape`](crate::lexer::Shape)
//! (quackdb's statement cache, DESIGN.md "Statement cache").
//!
//! Each literal (and each `$n` placeholder) is a *slot*: the parser reads
//! it as [`Expr::Param`](crate::ast::Expr::Param) and the binder binds it
//! as [`BoundExpr::Param`]. What the parser or binder would decide from a
//! literal's value is recorded here, so a later statement of the same
//! shape can reuse the template only where those decisions come out the
//! same:
//!
//! - a negated literal (`-5`) is folded into its slot: the slot is
//!   negated again in every later statement;
//! - a literal read as structure (LIMIT, OFFSET, an ORDER BY ordinal, a
//!   literal in an expression matched against another) is *structural*:
//!   a later statement must hold the same value there;
//! - a constant the binder folds from slots (a typed literal, a constant
//!   cast, a pure-literal call such as `STBOX('…')`) becomes a *constant*
//!   slot, recomputed by the same function for each statement; the fold
//!   must come out the same way (a value of the same type, or an error)
//!   for the template to apply.

use crate::bound::BoundExpr;
use crate::error::SqlResult;
use crate::registry::ScalarFn;
use crate::value::{LogicalType, Value};

/// The slots of one template.
#[derive(Clone, Default)]
pub struct Slots {
    /// Each slot's value in the statement the template is built from:
    /// the `$n` placeholders, then the literals in written order, then
    /// the constants folded from them.
    values: Vec<Value>,
    /// Slots `0..placeholders` are `$n` placeholders.
    placeholders: usize,
    /// Slots `0..written` are placeholders and literals; the rest are
    /// constants, `consts[slot - written]`.
    written: usize,
    /// Literal slots the parser negated, in order (a slot negated twice
    /// appears twice).
    negated: Vec<usize>,
    /// Slots whose value the parser or binder read as structure.
    structural: Vec<usize>,
    consts: Vec<Const>,
}

/// A constant the binder folded from slots.
#[derive(Clone)]
struct Const {
    func: ScalarFn,
    args: Vec<Arg>,
    /// The type of the folded value, or `None` when the fold failed in
    /// the template (the call was left unfolded).
    ty: Option<LogicalType>,
}

#[derive(Clone)]
enum Arg {
    Slot(usize),
    Value(Value),
}

impl Const {
    fn eval(&self, values: &[Value]) -> SqlResult<Value> {
        let args: Vec<Value> = self
            .args
            .iter()
            .map(|a| match a {
                Arg::Slot(s) => values[*s].clone(),
                Arg::Value(v) => v.clone(),
            })
            .collect();
        (self.func)(&args)
    }
}

impl Slots {
    /// The slots of a statement with placeholder values `params` and
    /// literals `literals` (its [`Shape`](crate::lexer::Shape)'s).
    pub fn new(params: &[Value], literals: &[Value]) -> Self {
        let values: Vec<Value> = params.iter().chain(literals).cloned().collect();
        Slots { written: values.len(), values, placeholders: params.len(), ..Slots::default() }
    }

    /// Every slot's value in the statement the template is built from.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// How many slots are `$n` placeholders.
    pub fn placeholders(&self) -> usize {
        self.placeholders
    }

    /// Is `slot` a written literal (not a placeholder or a constant)?
    pub(crate) fn is_literal(&self, slot: usize) -> bool {
        (self.placeholders..self.written).contains(&slot)
    }

    /// Fold a `-` into literal slot `slot` when it holds a number, as the
    /// parser folds `-5`: the negated value, or `None` when the `-` stays
    /// an operator.
    pub(crate) fn negate(&mut self, slot: usize) -> Option<Value> {
        if !self.is_literal(slot) {
            return None;
        }
        let negated = negated(&self.values[slot])?;
        self.values[slot] = negated.clone();
        self.negated.push(slot);
        Some(negated)
    }

    /// Record that the statement's structure depends on `slot`'s value.
    pub(crate) fn structural(&mut self, slot: usize) {
        self.structural.push(slot);
    }

    /// Fold the call of `func` over the constants `args`, each a literal
    /// or a slot: the one fold the binder does. `None` when an argument
    /// is not a constant or is NULL. A fold over slots becomes a constant
    /// slot; its failure is recorded too, so a statement whose fold
    /// succeeds does not reuse the unfolded template.
    pub(crate) fn fold(
        slots: Option<&mut Slots>,
        func: &ScalarFn,
        args: &[BoundExpr],
    ) -> Option<SqlResult<BoundExpr>> {
        let mut folded = Const { func: func.clone(), args: Vec::with_capacity(args.len()), ty: None };
        for a in args {
            folded.args.push(match a {
                BoundExpr::Literal(v) if !v.is_null() => Arg::Value(v.clone()),
                BoundExpr::Param { index, .. } => {
                    let values = slots.as_ref().map_or(&[][..], |s| &s.values[..]);
                    match values.get(*index) {
                        Some(v) if !v.is_null() => Arg::Slot(*index),
                        _ => return None,
                    }
                }
                _ => return None,
            });
        }
        let over_slots = folded.args.iter().any(|a| matches!(a, Arg::Slot(_)));
        let slots = match slots {
            Some(slots) if over_slots => slots,
            // Literals only: the value itself.
            _ => return Some(folded.eval(&[]).map(BoundExpr::Literal)),
        };
        let result = folded.eval(&slots.values);
        folded.ty = result.as_ref().ok().map(Value::logical_type);
        let index = slots.values.len();
        slots.values.push(result.as_ref().cloned().unwrap_or_default());
        slots.consts.push(folded);
        Some(result.map(|v| BoundExpr::Param { index, ty: v.logical_type() }))
    }

    /// The slot values for a statement of this template's shape whose
    /// placeholders and literals are `written`: its literals negated where
    /// the template's were, then the constants recomputed. `None` when the
    /// statement needs a template of its own: a structural slot holds
    /// another value, or a constant folds to another type or fails where
    /// the template's did not (or the reverse).
    pub fn instantiate(&self, written: &[Value]) -> Option<Vec<Value>> {
        if written.len() != self.written {
            return None;
        }
        let mut values = Vec::with_capacity(self.values.len());
        values.extend_from_slice(written);
        for &slot in &self.negated {
            values[slot] = negated(&values[slot])?;
        }
        if !self.structural.iter().all(|&s| identical(&values[s], &self.values[s])) {
            return None;
        }
        for c in &self.consts {
            let v = match (c.eval(&values), &c.ty) {
                (Ok(v), Some(ty)) if v.logical_type() == *ty => v,
                (Err(_), None) => Value::Null,
                _ => return None,
            };
            values.push(v);
        }
        Some(values)
    }
}

/// `-v` for a number, as the parser folds it.
fn negated(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => Some(Value::Int(i.wrapping_neg())),
        Value::Float(f) => Some(Value::Float(-f)),
        _ => None,
    }
}

/// Equal, and indistinguishable to anything that reads them: floats
/// compare by bits, so `0.0` and `-0.0` differ.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b && a.logical_type() == b.logical_type(),
    }
}
