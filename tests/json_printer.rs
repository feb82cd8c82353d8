//! The JSON printer against a reference copy of the printer it replaced.
//!
//! `serde_json::to_string`/`to_string_pretty` serialize typed data and
//! `Value` trees through one `Serializer` that appends scalars,
//! indentation and unescaped string runs straight into the output
//! buffer. The reference below is the earlier printer, which walked a
//! `Value` tree, allocated a `String` per integer and float and pushed
//! indentation one space at a time. Plan digests hash the printed bytes,
//! so the two must print the same bytes, compact and pretty:
//! - on random `Value` trees (edge-case floats and integers, strings
//!   needing every kind of escape, empty and deeply nested containers);
//! - on typed data of every shape the derive supports, printed straight
//!   against the reference run on its `to_value()` tree;
//! - on plan artifacts of random chained graphs under all six schemes.
//!
//! A plan's `BranchTable` prints, with no sort, the bytes a `HashMap` of
//! its entries prints.
//!
//! Maps print in the order their entries' `Value`s sort in; the
//! reference order is the tree comparison the printer used before it
//! stopped building trees.

use pas_andor::core::{BranchTable, PlanArtifact, Scheme, Setup};
use pas_andor::graph::NodeId;
use pas_andor::power::ProcessorModel;
use pas_andor::workloads::RandomAppParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Serializer, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self.0);
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

// ---- typed data against the reference on its tree --------------------------

/// `x` printed straight must equal the reference printer on
/// `x.to_value()`, compact and pretty.
fn assert_typed_matches<T: Serialize + ?Sized>(x: &T) {
    let v = x.to_value();
    assert_eq!(serde_json::to_string(x).ok(), reference(&v, None), "{v:?}");
    assert_eq!(
        serde_json::to_string_pretty(x).ok(),
        reference(&v, Some(2)),
        "{v:?}"
    );
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    name: String,
    weight: f64,
    offset: i16,
    tags: Vec<String>,
    next: Option<Box<Named>>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i64, f32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Scalar(f64),
    Span(u8, usize, char),
    Rect { w: f64, h: f64, label: String },
    Nested(Vec<Shape>),
}

fn random_named(rng: &mut StdRng, depth: usize) -> Named {
    Named {
        id: rng.gen::<u64>() as u32,
        name: random_string(rng),
        weight: random_float(rng),
        offset: rng.gen::<u64>() as i16,
        tags: (0..rng.gen_range(0..3))
            .map(|_| random_string(rng))
            .collect(),
        next: (depth > 0 && rng.gen()).then(|| Box::new(random_named(rng, depth - 1))),
    }
}

fn random_shape(rng: &mut StdRng, depth: usize) -> Shape {
    match rng.gen_range(0..if depth == 0 { 4 } else { 5 }) {
        0 => Shape::Empty,
        1 => Shape::Scalar(random_float(rng)),
        2 => Shape::Span(
            rng.gen::<u64>() as u8,
            rng.gen::<u64>() as usize,
            ['a', '"', '\n', 'é', '🦀'][rng.gen_range(0..5usize)],
        ),
        3 => Shape::Rect {
            w: random_float(rng),
            h: random_float(rng),
            label: random_string(rng),
        },
        _ => Shape::Nested(
            (0..rng.gen_range(0..4))
                .map(|_| random_shape(rng, depth - 1))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn derived_types_print_as_their_trees(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let named = random_named(&mut rng, 3);
        assert_typed_matches(&named);
        let shapes: Vec<Shape> = (0..rng.gen_range(0..6)).map(|_| random_shape(&mut rng, 3)).collect();
        assert_typed_matches(&shapes);
        let pair = Pair(rng.gen::<u64>() as i64, random_float(&mut rng) as f32);
        assert_typed_matches(&pair);
        assert_typed_matches(&(Newtype(rng.gen::<u64>()), Unit, Some(pair), None::<Pair>));
        assert_typed_matches(&[shapes.clone(), vec![], shapes]);
        let nested: Vec<Vec<Option<i32>>> = (0..rng.gen_range(0..4))
            .map(|_| (0..rng.gen_range(0..4)).map(|_| rng.gen::<bool>().then(|| rng.gen::<u64>() as i32)).collect())
            .collect();
        assert_typed_matches(&nested);
        let set: BTreeSet<(i8, String)> = (0..rng.gen_range(0..6)).map(|_| (rng.gen::<u64>() as i8, random_string(&mut rng))).collect();
        assert_typed_matches(&set);
        let map: BTreeMap<String, Vec<f64>> = (0..rng.gen_range(0..6))
            .map(|_| (random_string(&mut rng), (0..rng.gen_range(0..3)).map(|_| random_float(&mut rng)).collect()))
            .collect();
        assert_typed_matches(&map);
        let hmap: HashMap<(u16, i8), Shape> = (0..rng.gen_range(0..8))
            .map(|_| ((rng.gen_range(0..4), rng.gen_range(-2..2)), random_shape(&mut rng, 1)))
            .collect();
        assert_typed_matches(&hmap);
        // Derived types read back what they print.
        let back: Named = serde_json::from_str(&serde_json::to_string(&named).unwrap()).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), serde_json::to_string(&named).unwrap());
    }
}

#[test]
fn unit_and_empty_shapes_print_as_their_trees() {
    assert_typed_matches(&Unit);
    assert_typed_matches(&Shape::Empty);
    assert_typed_matches(&Shape::Nested(vec![]));
    assert_typed_matches(&Vec::<Unit>::new());
    assert_typed_matches(&BTreeMap::<u8, u8>::new());
    assert_typed_matches(&HashMap::<String, Unit>::new());
    assert_typed_matches(&BTreeSet::<u8>::new());
    assert_typed_matches(&[[0u8; 0]; 2]);
    assert_typed_matches(&((Unit,), (Unit, (Unit,))));
    assert_typed_matches("a\"b");
    assert_typed_matches(&'\u{1f}');
}

/// A `HashMap` whose keys serialize equal prints in the same order as
/// the reference does on its tree: by key, then by value.
#[test]
fn equal_keys_print_as_their_trees() {
    let map: HashMap<Label, Vec<f64>> = [
        (Label("b", 0), vec![2.5]),
        (Label("a", 0), vec![7.0, 1.0]),
        (Label("b", 1), vec![]),
        (Label("a", 1), vec![7.0]),
        (Label("a", 2), vec![-1.0]),
    ]
    .into_iter()
    .collect();
    assert_typed_matches(&map);
    assert_eq!(
        serde_json::to_string(&map).unwrap(),
        r#"[["a",[-1.0]],["a",[7.0]],["a",[7.0,1.0]],["b",[]],["b",[2.5]]]"#
    );
}

#[derive(Serialize)]
struct WithFloat {
    ok: f64,
    bad: Vec<f64>,
}

/// A non-finite float anywhere in typed data is still an error, with the
/// same message, compact and pretty.
#[test]
fn a_non_finite_field_is_an_error() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let x = WithFloat {
            ok: 1.0,
            bad: vec![0.5, bad],
        };
        for r in [serde_json::to_string(&x), serde_json::to_string_pretty(&x)] {
            assert_eq!(
                r.unwrap_err().to_string(),
                "JSON cannot represent NaN or infinity"
            );
        }
        assert!(serde_json::to_string(&Shape::Scalar(bad)).is_err());
        assert!(serde_json::to_string(&Some(bad as f32)).is_err());
    }
}

/// Plan artifacts of random chained graphs under every scheme: the
/// printed plan equals the reference printer on its tree, and its digest
/// is the digest of those bytes.
#[test]
fn plan_artifacts_print_as_their_trees() {
    let params = RandomAppParams {
        max_depth: 4,
        ..RandomAppParams::default()
    };
    for (seed, segments) in [(11u64, 3usize), (12, 8), (13, 20)] {
        let g = params
            .chained(seed, segments)
            .lower()
            .expect("chained segments lower");
        for (platform, model) in [
            ("xscale", ProcessorModel::xscale()),
            ("transmeta", ProcessorModel::transmeta5400()),
        ] {
            let setup = Setup::for_load(g.clone(), model, 3, 0.7).expect("feasible load");
            for scheme in Scheme::ALL {
                let artifact = PlanArtifact::from_setup(&setup, scheme, "random", platform);
                let json = artifact.to_json().expect("artifact serializes");
                assert_eq!(Some(json.clone()), reference(&artifact.to_value(), Some(2)));
                assert_typed_matches(&artifact);
                assert_eq!(artifact.digest().unwrap(), PlanArtifact::digest_of(&json));
            }
        }
    }
}

// ---- map order against the tree comparison ---------------------------------

/// The order the printer sorted map entries in while it built trees: a
/// total order over `Value`s, by kind, then by content.
fn ref_cmp(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::UInt(_) | Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Object(_) => 5,
        }
    }
    match (a, b) {
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (a, b) if rank(a) == 2 && rank(b) == 2 => {
            a.as_f64().unwrap().total_cmp(&b.as_f64().unwrap())
        }
        (Value::Array(a), Value::Array(b)) => a
            .iter()
            .zip(b)
            .map(|(x, y)| ref_cmp(x, y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len())),
        (Value::Object(a), Value::Object(b)) => a
            .iter()
            .zip(b)
            .map(|((ka, va), (kb, vb))| ka.cmp(kb).then_with(|| ref_cmp(va, vb)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len())),
        (a, b) => rank(a).cmp(&rank(b)),
    }
}

/// A map key that prints as its `Value` and is ordered (and so iterated
/// by a `BTreeMap`) by its index alone.
struct Keyed(usize, Value);

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for Keyed {}
impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

impl Serialize for Keyed {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        self.1.serialize(s);
    }
}

/// Keys drawn from small pools so that they often tie or share prefixes:
/// numbers equal as `f64` across widths (2^53 and 2^53 + 1, `3` and
/// `3.0`), signed zeros, strings with common prefixes, and containers of
/// them of different lengths.
fn random_key(rng: &mut StdRng, depth: usize) -> Value {
    let scalars = [
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::UInt(3),
        Value::Float(3.0),
        Value::Int(-3),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::UInt(1 << 53),
        Value::UInt((1 << 53) + 1),
        Value::Float(f64::MAX),
        Value::Str(String::new()),
        Value::Str("a".into()),
        Value::Str("ab".into()),
        Value::Str("b".into()),
    ];
    if depth == 0 || rng.gen_range(0..3) > 0 {
        return scalars[rng.gen_range(0..scalars.len())].clone();
    }
    let len = rng.gen_range(0..3);
    if rng.gen() {
        Value::Array((0..len).map(|_| random_key(rng, depth - 1)).collect())
    } else {
        Value::Object(
            (0..len)
                .map(|_| {
                    let name = ["a", "ab", "b"][rng.gen_range(0..3usize)].to_string();
                    (name, random_key(rng, depth - 1))
                })
                .collect(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A map prints its entries sorted (stably, from its iteration order)
    /// by the tree comparison on keys, then on values.
    #[test]
    fn map_order_matches_the_tree_comparison(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..12);
        let map: BTreeMap<Keyed, Value> = (0..n)
            .map(|i| (Keyed(i, random_key(&mut rng, 3)), random_key(&mut rng, 2)))
            .collect();
        let mut want: Vec<(Value, Value)> = map.iter().map(|(k, v)| (k.1.clone(), v.clone())).collect();
        want.sort_by(|(ka, va), (kb, vb)| ref_cmp(ka, kb).then_with(|| ref_cmp(va, vb)));
        let want = Value::Array(want.into_iter().map(|(k, v)| Value::Array(vec![k, v])).collect());
        prop_assert_eq!(serde_json::to_string(&map).ok(), reference(&want, None));
        prop_assert_eq!(map.to_value(), want);
    }
}

// ---- branch tables against hash maps ---------------------------------------

/// `(or, branch)` keys from small pools, so they often collide. Branch
/// indices stay below 2^53, where the printer's number order (by `f64`)
/// is integer order.
fn random_branch_key(rng: &mut StdRng) -> (NodeId, usize) {
    let or = [0, 1, 2, 7, 1000, u32::MAX][rng.gen_range(0..6usize)];
    let k = [0, 1, 2, 3, 1 << 40][rng.gen_range(0..5usize)];
    (NodeId(or), k)
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A `BranchTable` prints the bytes a `HashMap` of the same entries
    /// prints, whatever order either was filled in; `from_json` takes
    /// entries in any order, the last of equal keys winning, and the
    /// table round-trips.
    #[test]
    fn branch_table_prints_as_a_hash_map(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..40);
        let mut entries: Vec<((NodeId, usize), f64)> = (0..n)
            .map(|_| (random_branch_key(&mut rng), random_float(&mut rng)))
            .collect();
        let map: HashMap<(NodeId, usize), f64> = entries.iter().copied().collect();
        let table: BranchTable = entries.iter().copied().collect();
        prop_assert_eq!(serde_json::to_string(&table).ok(), serde_json::to_string(&map).ok());
        prop_assert_eq!(
            serde_json::to_string_pretty(&table).ok(),
            serde_json::to_string_pretty(&map).ok()
        );
        prop_assert_eq!(table.len(), map.len());
        for (key, v) in &map {
            prop_assert_eq!(table.get(key).map(|x| x.to_bits()), Some(v.to_bits()));
            prop_assert_eq!(table[key].to_bits(), v.to_bits());
        }
        for (key, v) in &table {
            prop_assert_eq!(map.get(key), Some(v));
        }
        prop_assert!(table.keys().zip(table.keys().skip(1)).all(|(a, b)| a < b));

        // A shuffled entry list with duplicates reads as the map a
        // sequence of inserts in list order builds.
        for i in 0..n / 4 {
            entries.push((entries[i].0, random_float(&mut rng)));
        }
        shuffle(&mut entries, &mut rng);
        let doc = serde_json::to_string(&entries).expect("entries print");
        let read: BranchTable = serde_json::from_str(&doc).expect("entry list reads");
        let inserted: HashMap<(NodeId, usize), f64> = entries.iter().copied().collect();
        prop_assert_eq!(serde_json::to_string(&read).ok(), serde_json::to_string(&inserted).ok());
        prop_assert_eq!(&read, &entries.iter().copied().collect::<BranchTable>());

        let text = serde_json::to_string(&table).expect("table prints");
        let back: BranchTable = serde_json::from_str(&text).expect("table reads");
        prop_assert_eq!(serde_json::to_string(&back).ok(), Some(text));
        prop_assert_eq!(&back, &table);
    }
}
