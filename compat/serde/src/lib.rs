#![warn(missing_docs)]

//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-copy framework parameterized over
//! serializer/deserializer implementations; this workspace only ever
//! serializes to and from JSON strings, so the shim pivots everything
//! through an owned [`Value`] tree instead:
//!
//! * [`Serialize`] renders a type to a [`Value`];
//! * [`Deserialize`] rebuilds a type from a [`&Value`](Value);
//! * the `serde_json` companion crate prints and parses `Value` as JSON.
//!
//! Determinism rules (golden traces depend on them): struct fields keep
//! declaration order, maps serialize as key-sorted `[key, value]` pair
//! arrays, sets as sorted arrays.
//!
//! The `derive` feature re-exports `#[derive(Serialize, Deserialize)]`
//! from the companion `serde_derive` proc-macro crate, which supports the
//! shapes this workspace uses (named structs, tuple structs, enums with
//! unit/newtype/tuple/struct variants; no generics).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

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

    /// A total order used to sort map entries deterministically.
    fn sort_key_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
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
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let (x, y) = (
                    a.as_f64().unwrap_or(f64::NAN),
                    b.as_f64().unwrap_or(f64::NAN),
                );
                x.total_cmp(&y)
            }
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sort_key_cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Object(a), Value::Object(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    match ka.cmp(kb).then_with(|| va.sort_key_cmp(vb)) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
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

/// Types renderable to a [`Value`].
pub trait Serialize {
    /// Renders `self` as a value tree.
    fn to_value(&self) -> Value;

    /// `self` as a value tree, borrowed when `self` already is one, so
    /// that printing a [`Value`] does not copy it first.
    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Owned(self.to_value())
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
    fn to_value(&self) -> Value {
        Value::Bool(*self)
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
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
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
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 { Value::UInt(i as u64) } else { Value::Int(i) }
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
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
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
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        (**self).as_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
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
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Box::new(T::from_value(v)?))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
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
    fn to_value(&self) -> Value {
        // BTreeSet iterates in key order: already deterministic.
        Value::Array(self.iter().map(Serialize::to_value).collect())
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

/// Maps serialize as an array of `[key, value]` pair arrays sorted by the
/// serialized key — JSON objects require string keys, and sorting makes
/// `HashMap` output independent of hash order.
fn map_to_value<'a, K: Serialize + 'a, V: Serialize + 'a>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) -> Value {
    // Sorted on the serialized key; values break ties only between keys
    // that serialize equal, so the order never depends on the map's own
    // iteration order.
    let mut pairs: Vec<(Value, Value)> =
        entries.map(|(k, v)| (k.to_value(), v.to_value())).collect();
    pairs.sort_by(|(ka, va), (kb, vb)| ka.sort_key_cmp(kb).then_with(|| va.sort_key_cmp(vb)));
    Value::Array(
        pairs
            .into_iter()
            .map(|(k, v)| Value::Array(vec![k, v]))
            .collect(),
    )
}

fn map_from_value<K: Deserialize, V: Deserialize>(v: &Value) -> Result<Vec<(K, V)>, Error> {
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

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
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
    fn to_value(&self) -> Value {
        map_to_value(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(map_from_value(v)?.into_iter().collect())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Cow<'_, Value> {
        Cow::Borrowed(self)
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

    #[test]
    fn a_value_is_borrowed_not_copied() {
        let v = Value::Array(vec![Value::Float(1.5), Value::Null]);
        assert!(matches!(v.as_value(), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        let r = &v;
        let through_ref = <&Value as Serialize>::as_value(&r);
        assert!(matches!(through_ref, Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert_eq!(
            vec![1.5f64].as_value().into_owned(),
            vec![1.5f64].to_value()
        );
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
