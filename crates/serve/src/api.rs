//! JSON request decoding and kernel introspection for the service API.
//! Requests are decoded from the vendored `serde` [`Value`] tree by hand —
//! they are small heterogeneous objects (named arrays next to typed
//! scalars) that a derive cannot express; responses use derived
//! `Serialize` where the shape is regular.
//!
//! Invariants every change here must keep:
//!
//! * **Number arrays leave the tree at the scanner.** `POST /run` and
//!   `POST /sessions` decode through [`run_body`] / [`open_body`]: a walk of
//!   [`serde_json::Scanner`] that builds the `Value` tree of the small fields
//!   and scans `args[i].array_f32` / `args[i].array_i32` / `maps[i].data`
//!   straight into a `Vec` — never a `Value` per element. A lifted array
//!   leaves `null` behind in the tree and is handed over by index.
//! * **Lifting changes no answer.** The whole body is scanned (a syntax error
//!   anywhere is still the first thing reported) before any field is
//!   validated, and the handlers validate in the order they always did. An
//!   array the scan cannot take whole — an element that is not a number, an
//!   integer out of range — stays in the tree, where [`f32_slice`] /
//!   [`i32_slice`] report it at the point they always did. Only the first
//!   field of a liftable name is a candidate, as [`Value::get`] reads the
//!   first. Both read an `f32` as `str::parse::<f32>` reads its token: the
//!   scan rounds the token once, straight to 24 bits (or, where that
//!   declines, by [`serde_json::narrow_f32`] with the token in hand), the
//!   tree by `narrow_f32` from the `f64` alone. The one input they can tell
//!   apart is a decimal of ten or more significant digits that reads as an
//!   `f64` exactly half-way between two `f32`s without being that point,
//!   where the scan has the token and the tree only the `f64`.
//! * **No integer wraps.** An integer argument its kind cannot hold is a 400
//!   naming the kind, never a truncated value.
//! * **Only the request side carries every array.** A lifted array goes to
//!   the run whole; the `/run` reply carries back only the arrays the run
//!   wrote (`null` for the rest, see `sessions.rs`), so the number path's
//!   cost on that route is mostly this decode.

use ftn_cluster::ShardArg;
use ftn_fpga::Bitstream;
use ftn_interp::RtValue;
use ftn_mlir::Ir;
use serde::Value;
use serde_json::{Error, Scanner};

/// Parse a request body as a JSON object.
pub fn parse_body(body: &str) -> Result<Value, String> {
    if body.trim().is_empty() {
        return Ok(Value::Obj(vec![]));
    }
    serde_json::value_from_str(body).map_err(|e| format!("invalid JSON body: {e}"))
}

/// A request body with the number arrays of one of its lists lifted out.
pub struct Body {
    /// The body as [`parse_body`] reads it, `null` where an array was lifted.
    pub fields: Value,
    /// Per element of the list: the array lifted out of it, if one was.
    pub arrays: Vec<Option<ArgSpec>>,
}

/// A typed array scan of the [`Scanner`], wrapped as what a handler takes.
type ArrayScan = fn(&mut Scanner) -> Option<ArgSpec>;

fn scan_f32(scanner: &mut Scanner) -> Option<ArgSpec> {
    scanner.f32_array().map(ArgSpec::ArrayF32)
}

fn scan_i32(scanner: &mut Scanner) -> Option<ArgSpec> {
    scanner.i32_array().map(ArgSpec::ArrayI32)
}

/// A `POST /sessions` body, each `maps[i].data` lifted as an
/// [`ArgSpec::ArrayF32`].
pub fn open_body(body: &str) -> Result<Body, String> {
    lift(body, "maps", &[("data", scan_f32)])
}

/// A `POST /run` body, each `args[i].array_f32` / `args[i].array_i32` lifted.
pub fn run_body(body: &str) -> Result<Body, String> {
    lift(
        body,
        "args",
        &[("array_f32", scan_f32), ("array_i32", scan_i32)],
    )
}

/// The object that starts here with each field's value read by `field`, or
/// whatever else starts here as a tree.
fn object(
    scanner: &mut Scanner,
    mut field: impl FnMut(&mut Scanner, &str) -> Result<Value, Error>,
) -> Result<Value, Error> {
    if !scanner.enter_object()? {
        return scanner.value();
    }
    let mut fields = Vec::new();
    while let Some(key) = scanner.next_key()? {
        let value = field(scanner, &key)?;
        fields.push((key, value));
    }
    Ok(Value::Obj(fields))
}

/// Decode `body`, lifting out of each object in its top-level array `list`
/// the first field named in `keys`, when that field's scan takes it.
fn lift(body: &str, list: &str, keys: &[(&str, ArrayScan)]) -> Result<Body, String> {
    let mut arrays = Vec::new();
    if body.trim().is_empty() {
        let fields = Value::Obj(vec![]);
        return Ok(Body { fields, arrays });
    }
    let mut scanner = Scanner::new(body);
    let mut list_seen = false;
    let fields = object(&mut scanner, |scanner, key| {
        let first = key == list && !list_seen;
        list_seen |= first;
        if !first || !scanner.enter_array()? {
            return scanner.value();
        }
        let mut items = Vec::new();
        while scanner.next_element()? {
            let (mut lifted, mut tried) = (None, false);
            items.push(object(scanner, |scanner, key| {
                if let Some((_, scan)) = keys.iter().find(|(k, _)| !tried && *k == key) {
                    tried = true;
                    lifted = scan(scanner);
                    if lifted.is_some() {
                        return Ok(Value::Null);
                    }
                }
                scanner.value()
            })?);
            arrays.push(lifted);
        }
        Ok(Value::Arr(items))
    });
    let fields = fields
        .and_then(|fields| scanner.finish().map(|()| fields))
        .map_err(|e| format!("invalid JSON body: {e}"))?;
    Ok(Body { fields, arrays })
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

/// The integer `v` spells (`2.0` counts), if an `i64` holds it; `what`
/// names the argument in the out-of-range message.
fn number_i64(v: &Value, what: &str) -> Result<i64, String> {
    let out_of_range = || format!("{what} out of range");
    match v {
        Value::Int(i) => Ok(*i),
        Value::UInt(u) => i64::try_from(*u).map_err(|_| out_of_range()),
        // `as` saturates, and -2^63 and 2^63 (the nearest f64 to `i64::MAX`)
        // bound exactly the floats an i64 holds.
        Value::Float(f) if f.fract() == 0.0 => {
            let holds = (i64::MIN as f64..i64::MAX as f64).contains(f);
            holds.then_some(*f as i64).ok_or_else(out_of_range)
        }
        _ => Err("expected an integer".to_string()),
    }
}

fn number_i32(v: &Value, what: &str) -> Result<i32, String> {
    let wide = number_i64(v, what)?;
    i32::try_from(wide).map_err(|_| format!("{what} out of range"))
}

/// The `f32` a number spells, by the tree's rule ([`serde_json::narrow_f32`]):
/// rounded once, not through `f64`.
fn number_f32(v: &Value) -> Result<f32, String> {
    serde_json::narrow_f32(v, None).ok_or_else(|| "expected a number".to_string())
}

pub fn f32_slice(items: &[Value]) -> Result<Vec<f32>, String> {
    items.iter().map(number_f32).collect()
}

pub fn i32_slice(items: &[Value]) -> Result<Vec<i32>, String> {
    items
        .iter()
        .map(|v| number_i32(v, "'array_i32' element"))
        .collect()
}

/// The `data` of one `maps` element: the array [`open_body`] lifted out of
/// it, or what the tree holds (and whatever is wrong with that).
pub fn map_data(map: &Value, lifted: Option<ArgSpec>) -> Result<Vec<f32>, String> {
    match lifted {
        Some(ArgSpec::ArrayF32(data)) => Ok(data),
        _ => f32_slice(get_arr(map, "data")?),
    }
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
/// `{"f64": 2.0}`, `{"i32": 5}`, `{"i64": 5}` or `{"index": 5}`. `lifted` is
/// the array [`run_body`] took out of this argument, if it did.
pub fn parse_arg(v: &Value, lifted: Option<ArgSpec>) -> Result<ArgSpec, String> {
    let Value::Obj(fields) = v else {
        return Err("argument must be an object like {\"f32\": 2.0}".to_string());
    };
    let [(key, value)] = fields.as_slice() else {
        return Err("argument object must have exactly one field".to_string());
    };
    // With one field, the lifted array was that field's whole, valid value.
    if let Some(array) = lifted {
        return Ok(array);
    }
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
                number_i64(off, "'extent_offset'")?,
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
        "f32" => scalar(RtValue::F32(number_f32(value)?)),
        "f64" => scalar(RtValue::F64(number_f64(value)?)),
        "i32" => scalar(RtValue::I32(number_i32(value, "'i32'")?)),
        "i64" => scalar(RtValue::I64(number_i64(value, "'i64'")?)),
        "index" => scalar(RtValue::Index(number_i64(value, "'index'")?)),
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
