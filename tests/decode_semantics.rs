//! `POST /run` and `POST /sessions` lift their number arrays out of the body
//! at the scanner instead of building a `Value` per element. Lifting must
//! change no answer: on generated bodies — arrays mixing integers, floats,
//! exponents, `-0`, padded whitespace, numbers past 2^53 and past `u64`,
//! elements that are not numbers, `data` that is not an array, duplicate
//! keys, lists that are not lists, truncated text — the lifted decode and
//! the tree decode (`api::parse_body`, then the same readers with nothing
//! lifted: the path every other route still takes) give the same `f32`/`i32`
//! bits or the same error text, argument by argument.

use ftn_serve::api::{self, ArgSpec, Body};
use proptest::TestRng;
use serde::Value;

const WS: &[&str] = &["", "", "", " ", "\n  ", "\t", "\r\n"];

const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "-0.0",
    "7",
    "-12",
    "0012",
    "2.0",
    "1.5",
    "-2.5e-7",
    "1e5",
    "1E+3",
    "3.4028236e38",
    "1e39",
    "1e400",
    "4.9e-324",
    "0.30000001192092896",
    "16777217",
    "9007199254740993",
    "2147483647",
    "-2147483648",
    "2147483648",
    "4294967297",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e300",
];

/// What an array element is when it is not a number, and when it is not
/// JSON at all.
const INTRUDERS: &[&str] = &["\"x\"", "null", "true", "[1]", "[]", "{}"];
const BROKEN: &[&str] = &["1e", "-", "1.2.3", "", "1 2", "nul"];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len())]
}

/// `[n, n, …]`, about one in six with something that is not a number in it.
fn number_array(rng: &mut TestRng) -> String {
    let len = rng.below(7);
    let intruder = (rng.below(6) == 0).then(|| rng.below(len + 1));
    let mut out = String::from("[");
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        out.push_str(pick(rng, WS));
        let number = pick(rng, NUMBERS);
        let intruder = match rng.below(4) {
            _ if intruder != Some(i) => number,
            0 => pick(rng, BROKEN),
            _ => pick(rng, INTRUDERS),
        };
        out.push_str(intruder);
        out.push_str(pick(rng, WS));
    }
    if intruder == Some(len) {
        out.push_str(pick(rng, &[",", " ", ",]", "x"]));
    }
    out.push(']');
    out
}

/// One object, `fields` in order, whitespace padded.
fn object(rng: &mut TestRng, fields: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}\"{key}\"{}:{}{value}{}",
            pick(rng, WS),
            pick(rng, WS),
            pick(rng, WS),
            pick(rng, WS)
        ));
    }
    out.push('}');
    out
}

fn run_arg(rng: &mut TestRng) -> String {
    let field = |rng: &mut TestRng| -> (String, String) {
        let (key, value) = match rng.below(9) {
            0..=2 => ("array_f32", number_array(rng)),
            3..=4 => ("array_i32", number_array(rng)),
            5 => (pick(rng, &["array_f32", "array_i32"]), "7".to_string()),
            6 => (pick(rng, &["f32", "f64"]), pick(rng, NUMBERS).to_string()),
            7 => (
                pick(rng, &["i32", "i64", "index"]),
                pick(rng, NUMBERS).to_string(),
            ),
            _ => (pick(rng, &["array", "bogus"]), "\"x\"".to_string()),
        };
        (key.to_string(), value)
    };
    match rng.below(12) {
        0 => pick(rng, &["1", "null", "[1, 2]", "\"array_f32\"", "{}"]).to_string(),
        1 => {
            let (first, second) = (field(rng), field(rng));
            object(rng, &[first, second])
        }
        _ => {
            let only = field(rng);
            object(rng, &[only])
        }
    }
}

fn map(rng: &mut TestRng) -> String {
    if rng.below(12) == 0 {
        return pick(rng, &["1", "null", "[1, 2]", "{}"]).to_string();
    }
    let mut fields = vec![
        ("name".to_string(), "\"x\"".to_string()),
        ("kind".to_string(), "\"tofrom\"".to_string()),
    ];
    for _ in 0..[1, 1, 1, 1, 0, 2][rng.below(6)] {
        let data = match rng.below(8) {
            0 => pick(rng, &["7", "\"[1]\"", "null", "{\"0\": 1}"]).to_string(),
            _ => number_array(rng),
        };
        let at = rng.below(fields.len() + 1);
        fields.insert(at, ("data".to_string(), data));
    }
    object(rng, &fields)
}

/// A whole body around a list of `element`s under `list`.
fn body(rng: &mut TestRng, list: &str, element: fn(&mut TestRng) -> String) -> String {
    let elements = |rng: &mut TestRng| {
        let items: Vec<String> = (0..rng.below(5)).map(|_| element(rng)).collect();
        format!("[{}]", items.join(","))
    };
    let mut fields = vec![("key".to_string(), "\"k\"".to_string())];
    for _ in 0..[1, 1, 1, 1, 0, 2][rng.below(6)] {
        let value = match rng.below(8) {
            0 => pick(rng, &["7", "\"maps\"", "null", "{\"data\": [1]}"]).to_string(),
            _ => elements(rng),
        };
        let at = rng.below(fields.len() + 1);
        fields.insert(at, (list.to_string(), value));
    }
    let mut text = match rng.below(16) {
        0 => elements(rng),
        _ => object(rng, &fields),
    };
    match rng.below(12) {
        0 => text.truncate(rng.below(text.len() + 1)),
        1 => text.push_str(pick(rng, &[" ", "x", "]", "{}"])),
        _ => {}
    }
    text
}

/// A decoded argument in a form that compares by bits.
#[derive(Debug, PartialEq)]
enum Decoded {
    F32(Vec<u32>),
    I32(Vec<i32>),
    Other(String),
}

fn decoded(spec: ArgSpec) -> Decoded {
    match spec {
        ArgSpec::ArrayF32(data) => Decoded::F32(data.iter().map(|f| f.to_bits()).collect()),
        ArgSpec::ArrayI32(data) => Decoded::I32(data),
        ArgSpec::Shard(arg) => Decoded::Other(format!("{arg:?}")),
    }
}

/// Every element of `list` read by `read`, with what was lifted out of it.
fn read_list(
    body: Result<Body, String>,
    list: &str,
    read: fn(&Value, Option<ArgSpec>) -> Result<Decoded, String>,
) -> Result<Vec<Result<Decoded, String>>, String> {
    let Body { fields, arrays } = body?;
    let mut lifted = arrays.into_iter();
    let elements = api::get_arr(&fields, list)?;
    Ok((elements.iter())
        .map(|e| read(e, lifted.next().flatten()))
        .collect())
}

fn tree(text: &str) -> Result<Body, String> {
    let fields = api::parse_body(text)?;
    let arrays = Vec::new();
    Ok(Body { fields, arrays })
}

#[test]
fn lifted_and_tree_decode_agree_on_generated_bodies() {
    type Route = (
        &'static str,
        fn(&mut TestRng) -> String,
        fn(&str) -> Result<Body, String>,
        fn(&Value, Option<ArgSpec>) -> Result<Decoded, String>,
    );
    let routes: [Route; 2] = [
        ("args", run_arg, api::run_body, |a, lifted| {
            api::parse_arg(a, lifted).map(decoded)
        }),
        ("maps", map, api::open_body, |m, lifted| {
            api::map_data(m, lifted).map(|data| decoded(ArgSpec::ArrayF32(data)))
        }),
    ];
    let mut rng = TestRng::new(21);
    let (mut arrays, mut lifted, mut element_errors, mut body_errors) = (0, 0, 0, 0);
    for round in 0..6000 {
        let (list, element, decode, read) = routes[round % 2];
        let text = body(&mut rng, list, element);
        let new = decode(&text);
        if let Ok(body) = &new {
            lifted += body.arrays.iter().flatten().count();
        }
        let new = read_list(new, list, read);
        let old = read_list(tree(&text), list, read);
        assert_eq!(new, old, "{text:?}");
        match old {
            Ok(elements) => {
                let is_array = |e: &&Result<Decoded, String>| {
                    matches!(e, Ok(Decoded::F32(_) | Decoded::I32(_)))
                };
                arrays += elements.iter().filter(is_array).count();
                element_errors += elements.iter().filter(|e| e.is_err()).count();
            }
            Err(_) => body_errors += 1,
        }
    }
    // The corpus exercises every side: arrays that were lifted, elements
    // whose error the tree readers name, and bodies that do not parse or
    // have no list to read.
    assert!(arrays > 2000, "{arrays} arrays decoded");
    assert!(lifted > 2000, "{lifted} arrays lifted");
    assert!(element_errors > 2000, "{element_errors} element errors");
    assert!(
        (1000..4000).contains(&body_errors),
        "{body_errors} bodies rejected whole"
    );
}

/// The cases the generator is built around, spelled out.
#[test]
fn lifting_follows_the_first_field_and_leaves_errors_to_the_tree() {
    let open = |text: &str| {
        let Body { fields, arrays } = api::open_body(text).expect("parses");
        let lifted: Vec<bool> = arrays.iter().map(Option::is_some).collect();
        (fields, lifted)
    };
    let json = |text: &str| serde_json::value_from_str(text).expect("test JSON");
    // A lifted array leaves `null`; a second `data` is never a candidate,
    // as `Value::get` would not see it either.
    assert_eq!(
        open(r#"{"maps": [{"data": [1, 2.5], "name": "x", "data": [3]}, 4, {"name": "y"}]}"#),
        (
            json(r#"{"maps": [{"data": null, "name": "x", "data": [3]}, 4, {"name": "y"}]}"#),
            vec![true, false, false]
        )
    );
    // What cannot be taken whole stays, for `f32_slice` to name.
    assert_eq!(
        open(r#"{"maps": [{"data": [1, "2"]}, {"data": 7}], "maps": [{"data": [1]}]}"#),
        (
            json(r#"{"maps": [{"data": [1, "2"]}, {"data": 7}], "maps": [{"data": [1]}]}"#),
            vec![false, false]
        )
    );
    let run = api::run_body(r#"{"args": [{"array_i32": [1, 4294967297]}, {"array_i32": [2.0]}]}"#);
    let lifted: Vec<bool> = (run.expect("parses").arrays.iter())
        .map(Option::is_some)
        .collect();
    assert_eq!(lifted, [false, true]);
    // A syntax error after a lifted array is still the body's error, at the
    // byte the tree parser names.
    let cut = r#"{"args": [{"array_f32": [1, 2, 3]}, {"f32": }]}"#;
    assert_eq!(
        api::run_body(cut).err(),
        api::parse_body(cut).err(),
        "{cut}"
    );
    assert!(api::run_body(cut).is_err());
    assert_eq!(
        api::run_body("  ").expect("empty").fields,
        Value::Obj(vec![])
    );
}

/// An `f32` is read from its text once, as `str::parse::<f32>` reads it —
/// by the lifted scan (`Scanner::f32_array`) and by the tree reader
/// (`api::f32_slice`) alike, never through `f64` first. Generated: decimals
/// of up to nine significant digits from below the least subnormal to past
/// `f32::MAX`, the same lengths rounded from the half-way points between
/// adjacent `f32`s (where a second rounding bites), those half-way points
/// written out in full, and integers past 2^53 (`i64` and `u64`). The scan
/// alone also gets the shortest `f64` text of each half-way point: read as
/// `f64` it *is* the tie, and only the token says which side it lies on — a
/// tree, holding the `f64` alone, cannot know.
#[test]
fn f32_numbers_are_read_as_str_parse_reads_them() {
    let mut rng = TestRng::new(0xf32);
    let mut both: Vec<String> = ["7.038531e-26", "-7.038531e-26", "1152921573326323713"]
        .map(String::from)
        .to_vec();
    let mut scan_only = Vec::new();
    for _ in 0..20_000 {
        let sign = ["", "-"][rng.below(2)];
        let digits = 1 + rng.below(9);
        let mantissa = rng.next_u64() % 10u64.pow(digits as u32);
        let exponent = rng.below(96) as i32 - 54;
        both.push(format!("{sign}{mantissa}e{exponent}"));
        let below = f32::from_bits(rng.next_u64() as u32 & 0x7f7f_ffff);
        let tie = (f64::from(below) + f64::from(below.next_up())) / 2.0;
        both.push(format!("{sign}{tie:.*e}", digits - 1));
        both.push(format!("{sign}{tie:.160e}"));
        scan_only.push(format!("{sign}{tie:e}"));
        // An `i64` or, past `i64::MAX`, a `u64`: exact in the tree too.
        let past_2_53 = (1u64 << 53) + rng.next_u64() % (u64::MAX - (1 << 53));
        let sign = if past_2_53 > i64::MAX as u64 {
            ""
        } else {
            sign
        };
        both.push(format!("{sign}{past_2_53}"));
    }
    let check = |tokens: &[String], tree: bool| {
        let text = format!("[{}]", tokens.join(","));
        let want: Vec<u32> = (tokens.iter())
            .map(|t| t.parse::<f32>().unwrap().to_bits())
            .collect();
        let bits = |data: Vec<f32>| data.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let scanned = serde_json::Scanner::new(&text).f32_array();
        let scanned = bits(scanned.expect("an array of numbers"));
        let mismatch = |got: &[u32]| {
            let at = got.iter().zip(&want).position(|(g, w)| g != w);
            at.map(|i| (&tokens[i], got[i], want[i]))
        };
        assert_eq!(mismatch(&scanned), None, "f32_array");
        if tree {
            let Ok(Value::Arr(items)) = serde_json::value_from_str(&text) else {
                panic!("an array");
            };
            let read = bits(api::f32_slice(&items).unwrap());
            assert_eq!(mismatch(&read), None, "f32_slice");
        }
    };
    check(&both, true);
    check(&scan_only, false);
}

/// `-0` is a float to every reader that takes one — `array_f32`, `f32`,
/// `f64` — and keeps the sign `str::parse` gives it, lifted or not; to the
/// integer readers it is 0, as it always was.
#[test]
fn negative_zero_keeps_its_sign_where_a_float_is_read() {
    for (arg, want) in [
        (
            r#"{"array_f32": [-0, 0, -00, -0.0, -0e3]}"#,
            "ArrayF32([-0.0, 0.0, -0.0, -0.0, -0.0])",
        ),
        (r#"{"f32": -0}"#, "Shard(Scalar(F32(-0.0)))"),
        (r#"{"f32": 0}"#, "Shard(Scalar(F32(0.0)))"),
        (r#"{"f64": -0}"#, "Shard(Scalar(F64(-0.0)))"),
        (r#"{"array_i32": [-0, 0, -00]}"#, "ArrayI32([0, 0, 0])"),
        (r#"{"i32": -0}"#, "Shard(Scalar(I32(0)))"),
        (r#"{"i64": -0}"#, "Shard(Scalar(I64(0)))"),
        (r#"{"index": -0}"#, "Shard(Scalar(Index(0)))"),
        (
            r#"{"extent_offset": {"array": "x", "offset": -0}}"#,
            r#"Shard(ExtentOffset("x", 0))"#,
        ),
    ] {
        let body = format!(r#"{{"args": [{arg}]}}"#);
        let Body { fields, arrays } = api::run_body(&body).expect("parses");
        let lifted = api::parse_arg(
            &api::get_arr(&fields, "args").unwrap()[0],
            arrays[0].clone(),
        );
        let tree = api::parse_body(&body).expect("parses");
        let read = api::parse_arg(&api::get_arr(&tree, "args").unwrap()[0], None);
        // Debug text tells `-0.0` from `0.0`.
        assert_eq!(format!("{:?}", lifted.unwrap()), want, "lifted {arg}");
        assert_eq!(format!("{:?}", read.unwrap()), want, "tree {arg}");
    }
}
