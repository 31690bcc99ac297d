//! Small helpers over the vendored `serde::Value` tree, which the result
//! file, the driver line, `compare` and the run-report reader all use.

use serde::Value;

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn count(n: usize) -> Value {
    Value::U64(n as u64)
}

pub fn numbers(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|v| Value::F64(*v)).collect())
}

/// Any JSON number as `f64`.
pub fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// A JSON string, or `"?"`.
pub fn string(v: Option<&Value>) -> &str {
    match v {
        Some(Value::Str(s)) => s,
        _ => "?",
    }
}

/// The elements of a JSON array, or none.
pub fn items(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Seq(items)) => items,
        _ => &[],
    }
}
