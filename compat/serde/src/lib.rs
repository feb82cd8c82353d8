#![warn(missing_docs)]

//! Offline stand-in for `serde`.
//!
//! As upstream, a type serializes by describing itself to a visitor:
//!
//! * [`Serialize`] describes a type to a [`Serializer`]: one call per
//!   scalar, begin/item/end calls per array or object;
//! * the `serde_json` companion crate's printer is a `Serializer`, so
//!   typed data prints with no tree in between;
//! * [`Serialize::to_value`] runs the one other `Serializer`, which
//!   builds an owned [`Value`] tree, and `Value` itself serializes by
//!   walking its tree;
//! * [`Deserialize`] rebuilds a type from a [`&Value`](Value), which the
//!   `serde_json` parser produces.
//!
//! Determinism rules (golden traces depend on them): struct fields keep
//! declaration order, maps serialize as key-sorted `[key, value]` pair
//! arrays, sets as sorted arrays.
//!
//! The `derive` feature re-exports `#[derive(Serialize, Deserialize)]`
//! from the companion `serde_derive` proc-macro crate, which supports the
//! shapes this workspace uses (named structs, tuple structs, enums with
//! unit/newtype/tuple/struct variants; no generics).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

mod map_order;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer (kept exact; JSON number).
    UInt(u64),
    /// Negative integer (kept exact; JSON number).
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object — insertion-ordered (order is meaningful for
    /// deterministic output; lookups are linear, objects are small).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value as an object's field list, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Int(i) => u64::try_from(*i).ok(),
            // `u64::MAX as f64` is 2^64, one past the range.
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::UInt(u) => i64::try_from(*u).ok(),
            Value::Int(i) => Some(*i),
            // `i64::MAX as f64` is 2^63, one past the range.
            Value::Float(f)
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f < i64::MAX as f64 =>
            {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// Looks up a field in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Deserialization error: a human-readable path/description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A sink that a [`Serialize`] type describes itself to, one call per
/// scalar and two per container, in document order.
///
/// An array is [`begin_array`](Serializer::begin_array), then
/// [`element`](Serializer::element) before each item, then
/// [`end_array`](Serializer::end_array); an object is
/// [`begin_object`](Serializer::begin_object), then
/// [`key`](Serializer::key) before each field's value, then
/// [`end_object`](Serializer::end_object). The `serde_json` printer is
/// one implementation; [`Serialize::to_value`] runs another that builds
/// a [`Value`].
pub trait Serializer {
    /// JSON `null`.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, b: bool);
    /// An unsigned integer.
    fn u64(&mut self, u: u64);
    /// A signed integer.
    fn i64(&mut self, i: i64);
    /// A floating-point number.
    fn f64(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// Opens an array.
    fn begin_array(&mut self);
    /// Announces the next item of the innermost open array.
    fn element(&mut self);
    /// Closes the innermost open array.
    fn end_array(&mut self);
    /// Opens an object.
    fn begin_object(&mut self);
    /// Announces the next field of the innermost open object; its value
    /// follows.
    fn key(&mut self, k: &str);
    /// Closes the innermost open object.
    fn end_object(&mut self);
}

/// Types that describe themselves to a [`Serializer`].
pub trait Serialize {
    /// Describes `self` to `s`.
    fn serialize<S: Serializer>(&self, s: &mut S);

    /// `self` as a value tree.
    fn to_value(&self) -> Value {
        let mut b = ValueBuilder::default();
        self.serialize(&mut b);
        b.done.unwrap_or(Value::Null)
    }
}

/// The [`Serializer`] behind [`Serialize::to_value`]: open containers
/// wait on a stack, each one is handed to its parent when it closes.
#[derive(Default)]
struct ValueBuilder {
    /// Open containers, innermost last; each is a `Value::Array` or a
    /// `Value::Object`.
    open: Vec<Value>,
    /// The finished top-level value.
    done: Option<Value>,
}

impl ValueBuilder {
    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some(Value::Array(items)) => items.push(v),
            Some(Value::Object(pairs)) => {
                if let Some((_, slot)) = pairs.last_mut() {
                    *slot = v;
                }
            }
            Some(_) => unreachable!("only containers are opened"),
        }
    }

    fn close(&mut self) {
        if let Some(v) = self.open.pop() {
            self.put(v);
        }
    }
}

impl Serializer for ValueBuilder {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn u64(&mut self, u: u64) {
        self.put(Value::UInt(u));
    }
    fn i64(&mut self, i: i64) {
        self.put(if i >= 0 {
            Value::UInt(i as u64)
        } else {
            Value::Int(i)
        });
    }
    fn f64(&mut self, f: f64) {
        self.put(Value::Float(f));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    fn begin_array(&mut self) {
        self.open.push(Value::Array(Vec::new()));
    }
    fn element(&mut self) {}
    fn end_array(&mut self) {
        self.close();
    }
    fn begin_object(&mut self) {
        self.open.push(Value::Object(Vec::new()));
    }
    fn key(&mut self, k: &str) {
        if let Some(Value::Object(pairs)) = self.open.last_mut() {
            pairs.push((k.to_string(), Value::Null));
        }
    }
    fn end_object(&mut self) {
        self.close();
    }
}

/// Types rebuildable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds an instance from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Fetches a required object field (helper for derived code).
pub fn obj_field<'v>(v: &'v Value, ty: &str, name: &str) -> Result<&'v Value, Error> {
    v.get(name)
        .ok_or_else(|| Error::custom(format!("missing field `{name}` in {ty}")))
}

/// Requires `v` to be an array of exactly `n` elements (derived tuples).
pub fn tuple_items<'v>(v: &'v Value, ty: &str, n: usize) -> Result<&'v [Value], Error> {
    let items = v
        .as_array()
        .ok_or_else(|| Error::custom(format!("expected array for {ty}")))?;
    if items.len() != n {
        return Err(Error::custom(format!(
            "expected {n} elements for {ty}, got {}",
            items.len()
        )));
    }
    Ok(items)
}

// ---- primitive impls -------------------------------------------------------

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

macro_rules! uint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64().ok_or_else(|| Error::custom(concat!(
                    "expected unsigned integer for ", stringify!($t))))?;
                <$t>::try_from(u).map_err(|_| Error::custom(concat!(
                    "integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

uint_impl!(u8, u16, u32, u64, usize);

macro_rules! sint_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: &mut S) {
                s.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().ok_or_else(|| Error::custom(concat!(
                    "expected integer for ", stringify!($t))))?;
                <$t>::try_from(i).map_err(|_| Error::custom(concat!(
                    "integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

sint_impl!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(*self);
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.f64(*self as f64);
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self);
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        s.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::custom("expected char"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

// ---- containers ------------------------------------------------------------

/// Describes `items` as an array.
fn serialize_seq<'a, T, S>(items: impl IntoIterator<Item = &'a T>, s: &mut S)
where
    T: Serialize + 'a,
    S: Serializer,
{
    s.begin_array();
    for item in items {
        s.element();
        item.serialize(s);
    }
    s.end_array();
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Some(x) => x.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        (**self).serialize(s);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_seq(self, s);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_seq(self, s);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_seq(self, s);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = tuple_items(v, "array", N)?;
        let mut out = Vec::with_capacity(N);
        for item in items {
            out.push(T::from_value(item)?);
        }
        out.try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<Ser: Serializer>(&self, s: &mut Ser) {
                s.begin_array();
                $(
                    s.element();
                    self.$n.serialize(s);
                )+
                s.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                const N: usize = 0 $(+ { let _ = $n; 1 })+;
                let items = tuple_items(v, "tuple", N)?;
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        // BTreeSet iterates in key order: already deterministic.
        serialize_seq(self, s);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// Maps serialize as an array of `[key, value]` pair arrays in
/// [`map_order`]: sorted on the serialized key, so that `HashMap` output
/// does not depend on hash order (JSON objects would need string keys).
fn serialize_map<'a, K, V, S>(entries: impl Iterator<Item = (&'a K, &'a V)>, s: &mut S)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    S: Serializer,
{
    s.begin_array();
    for (k, v) in map_order::sorted(entries) {
        s.element();
        s.begin_array();
        s.element();
        k.serialize(s);
        s.element();
        v.serialize(s);
        s.end_array();
    }
    s.end_array();
}

/// Reads a map's `[key, value]` entries in document order, duplicates
/// kept (helper for map-like types; a map keeps the last of equal keys).
pub fn map_from_value<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
    let items = v
        .as_array()
        .ok_or_else(|| Error::custom("expected array of map entries"))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let pair = tuple_items(item, "map entry", 2)?;
        out.push((K::from_value(&pair[0])?, V::from_value(&pair[1])?));
    }
    Ok(out)
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_map(self.iter(), s);
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        serialize_map(self.iter(), s);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value(v)?.into_iter().collect())
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        match self {
            Value::Null => s.null(),
            Value::Bool(b) => s.bool(*b),
            Value::UInt(u) => s.u64(*u),
            Value::Int(i) => s.i64(*i),
            Value::Float(f) => s.f64(*f),
            Value::Str(x) => s.str(x),
            Value::Array(items) => serialize_seq(items, s),
            Value::Object(pairs) => {
                s.begin_object();
                for (k, v) in pairs {
                    s.key(k);
                    v.serialize(s);
                }
                s.end_object();
            }
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_serialize_sorted() {
        let mut m = HashMap::new();
        m.insert(3u32, "c".to_string());
        m.insert(1u32, "a".to_string());
        m.insert(2u32, "b".to_string());
        let v = m.to_value();
        let items = v.as_array().unwrap();
        let keys: Vec<u64> = items
            .iter()
            .map(|p| p.as_array().unwrap()[0].as_u64().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
        let back: HashMap<u32, String> = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, m);
    }

    /// A tree walked into the value builder comes back equal, through a
    /// reference too; an `i64` of either sign builds what the parser
    /// reads back.
    #[test]
    fn a_value_walks_into_the_builder_unchanged() {
        let v = Value::Object(vec![
            (
                "a".into(),
                Value::Array(vec![Value::Float(1.5), Value::Null]),
            ),
            ("b".into(), Value::Object(vec![])),
            ("c".into(), Value::Array(vec![])),
            ("d".into(), Value::Int(-3)),
            ("e".into(), Value::Str("x".into())),
        ]);
        let mut b = ValueBuilder::default();
        v.serialize(&mut b);
        assert_eq!(b.done, Some(v.clone()));
        let r = &v;
        assert_eq!(<&Value as Serialize>::to_value(&r), v);
        assert_eq!(
            vec![5i32, -5].to_value(),
            Value::Array(vec![Value::UInt(5), Value::Int(-5)])
        );
        assert_eq!('é'.to_value(), Value::Str("é".into()));
    }

    #[test]
    fn options_use_null() {
        assert_eq!(None::<f64>.to_value(), Value::Null);
        assert_eq!(Some(2.5f64).to_value(), Value::Float(2.5));
        let x: Option<f64> = Deserialize::from_value(&Value::Null).unwrap();
        assert_eq!(x, None);
    }

    #[test]
    fn tuples_round_trip() {
        let t = (1u32, 2.5f64, "x".to_string());
        let back: (u32, f64, String) = Deserialize::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn integer_bounds_checked() {
        let v = Value::UInt(300);
        assert!(u8::from_value(&v).is_err());
        assert_eq!(u16::from_value(&v).unwrap(), 300);
    }

    #[test]
    fn integral_floats_convert_only_in_range() {
        let two_64 = Value::Float(18446744073709551616.0);
        assert_eq!(two_64.as_u64(), None);
        assert_eq!(Value::Float(9223372036854775808.0).as_i64(), None);
        assert_eq!(
            Value::Float(-9223372036854775808.0).as_i64(),
            Some(i64::MIN)
        );
        let top = Value::Float(18446744073709549568.0); // 2^64 - 2^11
        assert_eq!(top.as_u64(), Some(18446744073709549568));
        assert_eq!(Value::Float(3.0).as_u64(), Some(3));
        assert_eq!(Value::Float(-1.0).as_u64(), None);
        assert_eq!(Value::Float(2.5).as_i64(), None);
    }
}
