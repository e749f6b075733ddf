//! Small helpers over the workspace's self-describing [`Value`] tree
//! (the result files, expected digests and child reports are all JSON).

use serde::Number;
pub use serde::Value;

/// A float value (`null` when not finite, as JSON has no NaN).
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(Number::Float(v))
    } else {
        Value::Null
    }
}

/// An unsigned integer value.
pub fn uint(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

/// A string value.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A map value from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(entries: Vec<(K, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The number at `key`, if present and numeric.
pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).as_number().map(|n| n.as_f64())
}

/// The unsigned integer at `key`, if present and integral.
pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).as_number().and_then(|n| n.as_u64())
}

/// Compact one-line JSON.
pub fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always serializes")
}

/// Indented JSON with a trailing newline (for files).
pub fn to_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a value tree always serializes") + "\n"
}

/// Parses JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::parse_value(text).map_err(|e| e.to_string())
}

/// Reads and parses a JSON file.
pub fn read_file(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}
