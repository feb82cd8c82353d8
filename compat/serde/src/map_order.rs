//! The order map entries print in: by the serialized key, then, only
//! between keys that serialize equal, by the serialized value.
//!
//! A key is flattened to tokens (its scalars and brackets in document
//! order) instead of being built into a [`Value`](crate::Value) tree: the
//! tokens of every key share one vector of integers, so sorting them is a
//! scan over contiguous memory with no allocation per key. Comparing two
//! token runs lexicographically orders them as their trees order:
//! - values of different kinds by kind: null, bool, number, string,
//!   array, object;
//! - booleans `false` first, strings by bytes, numbers of any width by
//!   `f64::total_cmp` on their `f64` value;
//! - arrays item by item, objects field by field (name, then value), a
//!   container that runs out first sorting first: its closing token
//!   sorts below anything an item can start with.

use crate::{Serialize, Serializer};
use std::cmp::Ordering;
use std::ops::Range;

// Token kinds, in the order they sort in.
const CLOSE: u64 = 0;
const NULL: u64 = 1;
const BOOL: u64 = 2;
const NUM: u64 = 3;
/// A string or a field name; the payload indexes [`Tokens::strs`].
const STR: u64 = 4;
const ARRAY: u64 = 5;
const OBJECT: u64 = 6;

/// A [`Serializer`] that appends a value's tokens, each packed as
/// `kind << 64 | payload` so that two tokens other than strings compare
/// as integers.
#[derive(Default)]
struct Tokens {
    toks: Vec<u128>,
    strs: Vec<String>,
}

impl Tokens {
    fn token(&mut self, kind: u64, payload: u64) {
        self.toks.push((kind as u128) << 64 | payload as u128);
    }

    /// Appends `x`'s tokens and returns where they lie.
    fn push<T: Serialize + ?Sized>(&mut self, x: &T) -> Range<usize> {
        let start = self.toks.len();
        x.serialize(self);
        start..self.toks.len()
    }

    fn cmp(&self, a: Range<usize>, b: Range<usize>) -> Ordering {
        for (&x, &y) in self.toks[a.clone()].iter().zip(&self.toks[b.clone()]) {
            let o = if (x >> 64) as u64 == STR && (y >> 64) as u64 == STR {
                self.strs[x as u64 as usize].cmp(&self.strs[y as u64 as usize])
            } else {
                x.cmp(&y)
            };
            if o.is_ne() {
                return o;
            }
        }
        a.len().cmp(&b.len())
    }
}

impl Serializer for Tokens {
    fn null(&mut self) {
        self.token(NULL, 0);
    }
    fn bool(&mut self, b: bool) {
        self.token(BOOL, b as u64);
    }
    fn u64(&mut self, u: u64) {
        self.f64(u as f64);
    }
    fn i64(&mut self, i: i64) {
        self.f64(i as f64);
    }
    fn f64(&mut self, f: f64) {
        // The bits reordered so that unsigned order is `total_cmp`'s:
        // negatives reversed below the positives.
        let bits = f.to_bits();
        let key = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        self.token(NUM, key);
    }
    fn str(&mut self, s: &str) {
        self.token(STR, self.strs.len() as u64);
        self.strs.push(s.to_string());
    }
    fn begin_array(&mut self) {
        self.token(ARRAY, 0);
    }
    fn element(&mut self) {}
    fn end_array(&mut self) {
        self.token(CLOSE, 0);
    }
    fn begin_object(&mut self) {
        self.token(OBJECT, 0);
    }
    fn key(&mut self, k: &str) {
        self.str(k);
    }
    fn end_object(&mut self) {
        self.token(CLOSE, 0);
    }
}

/// Orders two serializable values as the map order does.
fn cmp_values<T: Serialize + ?Sized>(a: &T, b: &T) -> Ordering {
    let mut t = Tokens::default();
    let (ra, rb) = (t.push(a), t.push(b));
    t.cmp(ra, rb)
}

/// `entries` in map order. The sort is stable, so entries that compare
/// equal keep the order `entries` gave them.
pub(crate) fn sorted<'a, K, V>(entries: impl Iterator<Item = (&'a K, &'a V)>) -> Vec<(&'a K, &'a V)>
where
    K: Serialize + 'a,
    V: Serialize + 'a,
{
    let mut keys = Tokens::default();
    let mut order: Vec<(Range<usize>, &K, &V)> =
        entries.map(|(k, v)| (keys.push(k), k, v)).collect();
    order.sort_by(|(ra, _, va), (rb, _, vb)| {
        keys.cmp(ra.clone(), rb.clone())
            .then_with(|| cmp_values(*va, *vb))
    });
    order.into_iter().map(|(_, k, v)| (k, v)).collect()
}
