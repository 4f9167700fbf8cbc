//! JSON request decoding and kernel introspection for the service API.
//! Requests are decoded from the vendored `serde` [`Value`] tree by hand —
//! they are small heterogeneous objects (named arrays next to typed
//! scalars) that a derive cannot express; responses use derived
//! `Serialize` where the shape is regular.

use ftn_cluster::ShardArg;
use ftn_fpga::Bitstream;
use ftn_interp::RtValue;
use ftn_mlir::Ir;
use serde::Value;

/// Parse a request body as a JSON object.
pub fn parse_body(body: &str) -> Result<Value, String> {
    if body.trim().is_empty() {
        return Ok(Value::Obj(vec![]));
    }
    serde_json::value_from_str(body).map_err(|e| format!("invalid JSON body: {e}"))
}

pub fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("field '{key}' must be a string")),
        None => Err(format!("missing field '{key}'")),
    }
}

pub fn get_opt_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

pub fn get_bool_or(v: &Value, key: &str, default: bool) -> bool {
    match v.get(key) {
        Some(Value::Bool(b)) => *b,
        _ => default,
    }
}

pub fn get_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Arr(items)) => Ok(items),
        Some(_) => Err(format!("field '{key}' must be an array")),
        None => Err(format!("missing field '{key}'")),
    }
}

fn number_f64(v: &Value) -> Result<f64, String> {
    match v {
        Value::Float(f) => Ok(*f),
        Value::Int(i) => Ok(*i as f64),
        Value::UInt(u) => Ok(*u as f64),
        _ => Err("expected a number".to_string()),
    }
}

fn number_i64(v: &Value) -> Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        Value::UInt(u) => Ok(*u as i64),
        Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
        _ => Err("expected an integer".to_string()),
    }
}

pub fn f32_slice(items: &[Value]) -> Result<Vec<f32>, String> {
    items
        .iter()
        .map(|v| number_f64(v).map(|f| f as f32))
        .collect()
}

pub fn i32_slice(items: &[Value]) -> Result<Vec<i32>, String> {
    items
        .iter()
        .map(|v| number_i64(v).map(|f| f as i32))
        .collect()
}

/// One decoded launch/run argument, in the form its handler passes on.
#[derive(Debug, Clone)]
pub enum ArgSpec {
    /// What a session launch takes as is: a mapped array by name, its
    /// per-shard leading-dim extent (the rebased trip count / loop bound —
    /// the full extent on a one-shard session), that extent plus a constant
    /// (stencil bounds like `n - 1` that must rebase per shard), or a typed
    /// scalar. Only the scalars mean anything to a sessionless run.
    Shard(ShardArg),
    /// An inline f32 array (sessionless runs).
    ArrayF32(Vec<f32>),
    /// An inline i32 array (sessionless runs).
    ArrayI32(Vec<i32>),
}

/// Decode one argument object: `{"array": "x"}`, `{"extent": "x"}`,
/// `{"extent_offset": {"array": "x", "offset": -1}}`,
/// `{"array_f32": [...]}`, `{"array_i32": [...]}`, `{"f32": 2.0}`,
/// `{"f64": 2.0}`, `{"i32": 5}`, `{"i64": 5}` or `{"index": 5}`.
pub fn parse_arg(v: &Value) -> Result<ArgSpec, String> {
    let Value::Obj(fields) = v else {
        return Err("argument must be an object like {\"f32\": 2.0}".to_string());
    };
    let [(key, value)] = fields.as_slice() else {
        return Err("argument object must have exactly one field".to_string());
    };
    let scalar = |v: RtValue| Ok(ArgSpec::Shard(ShardArg::Scalar(v)));
    match key.as_str() {
        "array" => match value {
            Value::Str(s) => Ok(ArgSpec::Shard(ShardArg::Array(s.clone()))),
            _ => Err("'array' must name a mapped array".to_string()),
        },
        "extent" => match value {
            Value::Str(s) => Ok(ArgSpec::Shard(ShardArg::Extent(s.clone()))),
            _ => Err("'extent' must name a mapped array".to_string()),
        },
        "extent_offset" => match (value.get("array"), value.get("offset")) {
            (Some(Value::Str(s)), Some(off)) => Ok(ArgSpec::Shard(ShardArg::ExtentOffset(
                s.clone(),
                number_i64(off)?,
            ))),
            _ => Err("'extent_offset' must be {\"array\": name, \"offset\": int}".to_string()),
        },
        "array_f32" => match value {
            Value::Arr(items) => Ok(ArgSpec::ArrayF32(f32_slice(items)?)),
            _ => Err("'array_f32' must be an array of numbers".to_string()),
        },
        "array_i32" => match value {
            Value::Arr(items) => Ok(ArgSpec::ArrayI32(i32_slice(items)?)),
            _ => Err("'array_i32' must be an array of integers".to_string()),
        },
        "f32" => scalar(RtValue::F32(number_f64(value)? as f32)),
        "f64" => scalar(RtValue::F64(number_f64(value)?)),
        "i32" => scalar(RtValue::I32(number_i64(value)? as i32)),
        "i64" => scalar(RtValue::I64(number_i64(value)?)),
        "index" => scalar(RtValue::Index(number_i64(value)?)),
        other => Err(format!("unknown argument kind '{other}'")),
    }
}

/// `(kernel name, argument type strings)` for every kernel in a bitstream —
/// surfaced by `POST /compile` so clients know each kernel's launch
/// signature.
pub fn kernel_signatures(bitstream: &Bitstream) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut ir = Ir::new();
    let module = bitstream.instantiate(&mut ir)?;
    bitstream
        .kernels
        .iter()
        .map(|k| {
            let func = ir
                .lookup_symbol(module, &k.name)
                .ok_or_else(|| format!("kernel '{}' missing from bitstream module", k.name))?;
            let entry = ir.entry_block(func, 0);
            let args = ir
                .block(entry)
                .args
                .iter()
                .map(|&a| ftn_mlir::print_type(&ir, ir.value_ty(a)))
                .collect();
            Ok((k.name.clone(), args))
        })
        .collect()
}

/// Build a JSON object value.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
