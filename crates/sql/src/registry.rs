//! Function, aggregate, cast, operator, and type registries — the
//! extension surface. This is the Rust equivalent of the paper's §3.4:
//! MobilityDuck registers cast functions, scalar functions, and operators
//! (binary scalar functions named by their symbol) against the engine.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{SqlError, SqlResult};
use crate::value::{LogicalType, Value};

/// A scalar function implementation over runtime values.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> SqlResult<Value> + Send + Sync>;

/// One overload of a scalar function (or operator — operators are scalar
/// functions whose name is the operator symbol, exactly as in §3.4).
#[derive(Clone)]
pub struct ScalarSig {
    pub name: String,
    pub args: Vec<LogicalType>,
    /// When true, extra trailing arguments of any type are accepted.
    pub varargs: bool,
    pub ret: LogicalType,
    pub func: ScalarFn,
    /// Strict functions (the default) return NULL on any NULL argument
    /// without being called.
    pub strict: bool,
}

/// Incremental aggregate state. Both engines feed one group's state its
/// rows in input order, one [`AggState::update`] per row, at every thread
/// count, and never merge two states.
pub trait AggState: Send {
    fn update(&mut self, args: &[Value]) -> SqlResult<()>;
    fn finalize(&mut self) -> SqlResult<Value>;
}

/// One overload of an aggregate function.
#[derive(Clone)]
pub struct AggregateSig {
    pub name: String,
    pub args: Vec<LogicalType>,
    pub ret: LogicalType,
    pub factory: Arc<dyn Fn() -> Box<dyn AggState> + Send + Sync>,
}

/// One rule of the fusion table an extension registers (the analogue of a
/// DuckDB optimizer extension): a call to `outer` whose first argument —
/// or, when `commutes`, its second — is a call to `inner`, seen through a
/// call named `through` when one wraps it, becomes a call to `fused` over
/// `inner`'s arguments followed by `outer`'s other arguments. The rule
/// applies only where `fused` resolves over those argument types to the
/// type `outer` returns. Only quackdb's planner applies the table; the
/// fused function must return what the written calls return, and fail
/// where they fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionRule {
    pub outer: &'static str,
    pub inner: &'static str,
    pub fused: &'static str,
    /// `outer` is symmetric in its two arguments.
    pub commutes: bool,
    /// A call that keeps `inner`'s value, such as a cast that only changes
    /// its representation.
    pub through: Option<&'static str>,
}

/// Decoder turning a serialized extension value back into a runtime
/// [`Value`] (the detoast path of row stores).
pub type ExtDecoder = Arc<dyn Fn(&[u8]) -> SqlResult<Value> + Send + Sync>;

/// The shared registry: installed once per database instance; the
/// MobilityDuck extension populates it at load time.
#[derive(Clone, Default)]
pub struct Registry {
    scalars: HashMap<String, Vec<ScalarSig>>,
    aggregates: HashMap<String, Vec<AggregateSig>>,
    casts: HashMap<(LogicalType, LogicalType), ScalarFn>,
    types: HashMap<String, LogicalType>,
    ext_codecs: HashMap<String, ExtDecoder>,
    fusions: Vec<FusionRule>,
}

impl Registry {
    /// A registry preloaded with the built-in SQL surface.
    pub fn with_builtins() -> Self {
        let mut r = Registry::default();
        crate::builtins::register_builtins(&mut r);
        r
    }

    // ---------------------------------------------------------- types

    /// Register a type alias (e.g. `"stbox"` → `Ext("stbox")`). Mirrors
    /// the paper's `CREATE TYPE ... AS BLOB` alias registration (§3.3).
    pub fn register_type(&mut self, name: &str, ty: LogicalType) {
        self.types.insert(name.to_ascii_lowercase(), ty);
    }

    /// Resolve a type name written in SQL.
    pub fn resolve_type(&self, name: &str) -> SqlResult<LogicalType> {
        self.types
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::Bind(format!("unknown type {name:?}")))
    }

    pub fn type_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.types.keys().cloned().collect();
        v.sort();
        v
    }

    // ---------------------------------------------------------- scalars

    /// Register a scalar function overload (strict by default).
    pub fn register_scalar(
        &mut self,
        name: &str,
        args: Vec<LogicalType>,
        ret: LogicalType,
        func: impl Fn(&[Value]) -> SqlResult<Value> + Send + Sync + 'static,
    ) {
        self.scalars
            .entry(name.to_ascii_lowercase())
            .or_default()
            .push(ScalarSig {
                name: name.to_ascii_lowercase(),
                args,
                varargs: false,
                ret,
                func: Arc::new(func),
                strict: true,
            });
    }

    /// Register with full control over the signature.
    pub fn register_scalar_sig(&mut self, sig: ScalarSig) {
        self.scalars.entry(sig.name.clone()).or_default().push(sig);
    }

    /// Resolve a call by name and argument types, honouring implicit
    /// coercions (Int→Float, Null→anything).
    pub fn resolve_scalar(&self, name: &str, arg_types: &[LogicalType]) -> SqlResult<&ScalarSig> {
        let name = name.to_ascii_lowercase();
        let overloads = self
            .scalars
            .get(&name)
            .ok_or_else(|| SqlError::Bind(format!("unknown function {name:?}")))?;
        // Pass 1: exact match.
        for sig in overloads {
            if sig.args.len() == arg_types.len() && sig.args.iter().zip(arg_types).all(|(a, b)| a == b)
            {
                return Ok(sig);
            }
        }
        // Pass 2: coercible match.
        let matches: Vec<&ScalarSig> = overloads
            .iter()
            .filter(|sig| {
                (sig.args.len() == arg_types.len()
                    || (sig.varargs && arg_types.len() >= sig.args.len()))
                    && sig
                        .args
                        .iter()
                        .zip(arg_types)
                        .all(|(expected, actual)| actual.coercible_to(expected))
            })
            .collect();
        match matches.len() {
            0 => Err(SqlError::Bind(format!(
                "no overload of {name:?} matches argument types ({})",
                arg_types.iter().map(LogicalType::name).collect::<Vec<_>>().join(", ")
            ))),
            _ => Ok(matches[0]),
        }
    }

    pub fn has_scalar(&self, name: &str) -> bool {
        self.scalars.contains_key(&name.to_ascii_lowercase())
    }

    /// All registered scalar names (diagnostics / the Table-1 report).
    pub fn scalar_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.scalars.keys().cloned().collect();
        v.sort();
        v
    }

    // ---------------------------------------------------------- aggregates

    pub fn register_aggregate(
        &mut self,
        name: &str,
        args: Vec<LogicalType>,
        ret: LogicalType,
        factory: impl Fn() -> Box<dyn AggState> + Send + Sync + 'static,
    ) {
        self.aggregates
            .entry(name.to_ascii_lowercase())
            .or_default()
            .push(AggregateSig {
                name: name.to_ascii_lowercase(),
                args,
                ret,
                factory: Arc::new(factory),
            });
    }

    pub fn is_aggregate(&self, name: &str) -> bool {
        self.aggregates.contains_key(&name.to_ascii_lowercase())
    }

    pub fn resolve_aggregate(
        &self,
        name: &str,
        arg_types: &[LogicalType],
    ) -> SqlResult<&AggregateSig> {
        let name = name.to_ascii_lowercase();
        let overloads = self
            .aggregates
            .get(&name)
            .ok_or_else(|| SqlError::Bind(format!("unknown aggregate {name:?}")))?;
        for sig in overloads {
            if sig.args.len() == arg_types.len() && sig.args.iter().zip(arg_types).all(|(a, b)| a == b)
            {
                return Ok(sig);
            }
        }
        overloads
            .iter()
            .find(|sig| {
                sig.args.len() == arg_types.len()
                    && sig
                        .args
                        .iter()
                        .zip(arg_types)
                        .all(|(expected, actual)| actual.coercible_to(expected))
            })
            .ok_or_else(|| {
                SqlError::Bind(format!(
                    "no overload of aggregate {name:?} matches ({})",
                    arg_types.iter().map(LogicalType::name).collect::<Vec<_>>().join(", ")
                ))
            })
    }

    // ---------------------------------------------------------- casts

    /// Register an explicit cast (the paper's `RegisterCastFunction`).
    pub fn register_cast(
        &mut self,
        from: LogicalType,
        to: LogicalType,
        func: impl Fn(&[Value]) -> SqlResult<Value> + Send + Sync + 'static,
    ) {
        self.casts.insert((from, to), Arc::new(func));
    }

    // ---------------------------------------------------------- fusion rules

    /// Add a rule to the fusion table.
    pub fn register_fusion(&mut self, rule: FusionRule) {
        self.fusions.push(rule);
    }

    /// The fusion table, in registration order.
    pub fn fusions(&self) -> &[FusionRule] {
        &self.fusions
    }

    // ---------------------------------------------------------- ext codecs

    /// Register the binary decoder of an extension type. The matching
    /// encoder is [`crate::value::ExtObject::to_bytes`]; together they are
    /// the type's wire/storage format (a varlena in PostgreSQL terms).
    pub fn register_ext_codec(
        &mut self,
        type_name: &str,
        decode: impl Fn(&[u8]) -> SqlResult<Value> + Send + Sync + 'static,
    ) {
        self.ext_codecs.insert(type_name.to_ascii_lowercase(), Arc::new(decode));
    }

    /// Look up the binary decoder of an extension type.
    pub fn ext_codec(&self, type_name: &str) -> Option<ExtDecoder> {
        self.ext_codecs.get(type_name).cloned()
    }

    /// Find a cast implementation.
    pub fn resolve_cast(&self, from: &LogicalType, to: &LogicalType) -> Option<ScalarFn> {
        if from == to {
            let identity: ScalarFn = Arc::new(|args: &[Value]| Ok(args[0].clone()));
            return Some(identity);
        }
        self.casts.get(&(from.clone(), to.clone())).cloned()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("scalars", &self.scalars.len())
            .field("aggregates", &self.aggregates.len())
            .field("casts", &self.casts.len())
            .field("types", &self.types.len())
            .field("fusions", &self.fusions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_overload_resolution() {
        let mut r = Registry::default();
        r.register_scalar("f", vec![LogicalType::Int], LogicalType::Int, |a| {
            Ok(Value::Int(a[0].as_int()? + 1))
        });
        r.register_scalar("f", vec![LogicalType::Float], LogicalType::Float, |a| {
            Ok(Value::Float(a[0].as_float()? + 0.5))
        });
        let sig = r.resolve_scalar("F", &[LogicalType::Int]).unwrap();
        assert_eq!(sig.ret, LogicalType::Int);
        let sig = r.resolve_scalar("f", &[LogicalType::Float]).unwrap();
        assert_eq!(sig.ret, LogicalType::Float);
        assert!(r.resolve_scalar("f", &[LogicalType::Text]).is_err());
        assert!(r.resolve_scalar("g", &[]).is_err());
    }

    #[test]
    fn int_coerces_to_float_overload() {
        let mut r = Registry::default();
        r.register_scalar("sqrtish", vec![LogicalType::Float], LogicalType::Float, |a| {
            Ok(Value::Float(a[0].as_float()?.sqrt()))
        });
        let sig = r.resolve_scalar("sqrtish", &[LogicalType::Int]).unwrap();
        assert_eq!((sig.func)(&[Value::Int(9)]).unwrap().as_float().unwrap(), 3.0);
    }

    #[test]
    fn type_registration() {
        let mut r = Registry::default();
        r.register_type("STBOX", LogicalType::ext("stbox"));
        assert_eq!(r.resolve_type("stbox").unwrap(), LogicalType::ext("stbox"));
        assert!(r.resolve_type("nope").is_err());
    }

    #[test]
    fn cast_resolution() {
        let mut r = Registry::default();
        r.register_cast(LogicalType::Text, LogicalType::ext("stbox"), |a| {
            Ok(Value::text(format!("boxed:{}", a[0].as_text()?)))
        });
        assert!(r.resolve_cast(&LogicalType::Text, &LogicalType::ext("stbox")).is_some());
        assert!(r.resolve_cast(&LogicalType::Text, &LogicalType::ext("tbox")).is_none());
        // Identity cast always available.
        assert!(r.resolve_cast(&LogicalType::Int, &LogicalType::Int).is_some());
    }
}
