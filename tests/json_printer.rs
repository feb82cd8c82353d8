//! The JSON printer against a reference copy of the printer it replaced.
//!
//! `serde_json::to_string`/`to_string_pretty` append scalars, indentation
//! and unescaped string runs straight into the output buffer. The
//! reference below is the earlier printer, which allocated a `String` per
//! integer and float and pushed indentation one space at a time. Plan
//! digests hash the printed bytes, so on random `Value` trees (edge-case
//! floats and integers, strings needing every kind of escape, empty and
//! deeply nested containers) the two must print the same bytes, compact
//! and pretty.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::collections::HashMap;

// ---- reference printer -----------------------------------------------------

fn ref_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn ref_newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// The reference printer; `None` where it refuses the value (NaN or an
/// infinity anywhere in the tree).
fn ref_write(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) -> Option<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return None;
            }
            let s = f.to_string();
            out.push_str(&s);
            if !s.contains('.') {
                out.push_str(".0");
            }
        }
        Value::Str(s) => ref_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Some(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ref_newline_indent(out, indent, depth + 1);
                ref_write(item, out, indent, depth + 1)?;
            }
            ref_newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return Some(());
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ref_newline_indent(out, indent, depth + 1);
                ref_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                ref_write(item, out, indent, depth + 1)?;
            }
            ref_newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Some(())
}

fn reference(v: &Value, indent: Option<usize>) -> Option<String> {
    let mut out = String::new();
    ref_write(v, &mut out, indent, 0).map(|()| out)
}

// ---- random trees ----------------------------------------------------------

/// Floats whose printing has an edge: integral values (which get `.0`),
/// signed zero, the smallest subnormal, huge magnitudes Display prints
/// digit by digit, and values of 1e16 and up where the shortest form
/// ends in zeros.
const FLOATS: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    5e-324,
    f64::MIN_POSITIVE,
    1e300,
    -1e300,
    f64::MAX,
    1e15,
    1e16,
    1.5e17,
    9_007_199_254_740_993.0,
    123_456_789_012_345_680_000.0,
    0.1,
    -2.5e-7,
];

/// String pieces: plain ASCII, every escaped character, other control
/// characters, DEL, and multi-byte UTF-8.
const PIECES: [&str; 16] = [
    "plain", "", " ", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}", "\u{7f}", "é",
    "日本", "🦀", "a\"b\\c",
];

fn random_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..5))
        .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
        .collect()
}

fn random_float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => FLOATS[rng.gen_range(0..FLOATS.len())],
        1 => rng.gen_range(-1e6..1e6),
        2 => rng.gen_range(-1000i64..1000) as f64,
        _ => loop {
            let f = f64::from_bits(rng.gen::<u64>());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn random_scalar(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..8) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::UInt(match rng.gen_range(0..3) {
            0 => u64::MAX,
            1 => rng.gen_range(0..100),
            _ => rng.gen(),
        }),
        3 => Value::Int(match rng.gen_range(0..3) {
            0 => i64::MIN,
            1 => -rng.gen_range(1..100i64),
            _ => rng.gen::<u64>() as i64,
        }),
        4 | 5 => Value::Float(random_float(rng)),
        _ => Value::Str(random_string(rng)),
    }
}

fn random_value(rng: &mut StdRng, depth: usize) -> Value {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return random_scalar(rng);
    }
    let len = rng.gen_range(0..5);
    if rng.gen() {
        Value::Array((0..len).map(|_| random_value(rng, depth - 1)).collect())
    } else {
        Value::Object(
            (0..len)
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        )
    }
}

/// A chain nested `levels` deep, alternating arrays and objects, with
/// siblings at every level so each one indents a line.
fn deep_value(rng: &mut StdRng, levels: usize) -> Value {
    let mut v = random_scalar(rng);
    for level in 0..levels {
        v = if level % 2 == 0 {
            Value::Array(vec![random_scalar(rng), v, Value::Array(vec![])])
        } else {
            Value::Object(vec![
                (random_string(rng), v),
                ("empty".into(), Value::Object(vec![])),
            ])
        };
    }
    v
}

fn assert_same_bytes(v: &Value) -> Result<(), TestCaseError> {
    let compact = serde_json::to_string(v).ok();
    let pretty = serde_json::to_string_pretty(v).ok();
    prop_assert_eq!(compact, reference(v, None));
    prop_assert_eq!(pretty, reference(v, Some(2)));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn printer_matches_reference_on_random_trees(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_same_bytes(&random_value(&mut rng, 5))?;
    }

    /// Nesting deep enough that indentation outgrows the printer's
    /// constant run of spaces several times over.
    #[test]
    fn printer_matches_reference_on_deep_trees(seed in 0u64..u64::MAX, levels in 30usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_same_bytes(&deep_value(&mut rng, levels))?;
    }
}

#[test]
fn printer_matches_reference_on_edge_scalars() {
    let mut values: Vec<Value> = FLOATS.iter().map(|&f| Value::Float(f)).collect();
    values.extend(PIECES.iter().map(|s| Value::Str(s.to_string())));
    values.extend([
        Value::UInt(0),
        Value::UInt(u64::MAX),
        Value::Int(i64::MIN),
        Value::Array(vec![]),
        Value::Object(vec![]),
        Value::Object(vec![(PIECES.concat(), Value::Array(vec![]))]),
    ]);
    for v in &values {
        assert_same_bytes(v).unwrap_or_else(|e| panic!("{v:?}: {e:?}"));
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let v = Value::Array(vec![Value::Float(1.0), Value::Float(bad)]);
        assert!(reference(&v, None).is_none());
        assert!(serde_json::to_string(&v).is_err());
        assert!(serde_json::to_string_pretty(&v).is_err());
    }
}

/// A map key whose serialized form drops its second field, so two
/// distinct keys can serialize equal and only their values order them.
#[derive(PartialEq, Eq, Hash)]
struct Label(&'static str, u8);

impl Serialize for Label {
    fn to_value(&self) -> Value {
        Value::Str(self.0.to_string())
    }
}

/// A `HashMap` prints in serialized-key order (values breaking ties
/// between keys that serialize equal), whatever order it was filled in.
#[test]
fn hash_map_order_does_not_depend_on_insertion_order() {
    let entries = [
        (Label("beta", 0), 2.5),
        (Label("alpha", 0), 7.0),
        (Label("beta", 1), -1.0),
        (Label("gamma", 0), 0.0),
        (Label("alpha", 1), 3.0),
    ];
    let fill = |order: &[usize]| -> HashMap<Label, f64> {
        order
            .iter()
            .map(|&i| (Label(entries[i].0 .0, entries[i].0 .1), entries[i].1))
            .collect()
    };
    let want = r#"[["alpha",3.0],["alpha",7.0],["beta",-1.0],["beta",2.5],["gamma",0.0]]"#;
    for order in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 1, 3]] {
        // Fresh maps get fresh hash seeds, so iteration orders differ too.
        for _ in 0..4 {
            assert_eq!(serde_json::to_string(&fill(&order)).unwrap(), want);
        }
    }
}
