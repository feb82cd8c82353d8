//! Generates the float printer's table of 126-bit powers of ten.
//!
//! For every decimal exponent `k` in `[K_MIN, K_MAX] = [-324, 292]` the
//! table holds `g(k) = floor(10^(-k) · 2^(-r)) + 1` with
//! `r = flog2pow10(-k) - 125`, so `2^125 <= g(k) < 2^126` (Giulietti,
//! "The Schubfach way to render doubles", 2020). Every entry comes from
//! exact big-integer arithmetic here, at build time: nothing is pasted in
//! and nothing is computed when the program runs. The build also fails if
//! a multiply-and-shift logarithm estimate in `src/flog.rs` disagrees with
//! exact arithmetic anywhere on the range the printer uses.

use std::cmp::Ordering;
use std::fmt::Write as _;

#[path = "src/flog.rs"]
mod flog;

use flog::{flog10_three_quarters_pow2, flog10pow2, flog2pow10};

const K_MIN: i32 = -324;
const K_MAX: i32 = 292;
/// Binary exponents of the finite doubles' ulps: `v = c · 2^q`.
const Q_MIN: i32 = -1074;
const Q_MAX: i32 = 971;

/// An unsigned big integer: little-endian 64-bit limbs, no zero top limb.
struct Big(Vec<u64>);

impl Big {
    fn trimmed(mut limbs: Vec<u64>) -> Big {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Big(limbs)
    }

    fn mul_small(&self, m: u64) -> Big {
        let mut out = Vec::with_capacity(self.0.len() + 1);
        let mut carry = 0u128;
        for &limb in &self.0 {
            let p = limb as u128 * m as u128 + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        out.push(carry as u64);
        Big::trimmed(out)
    }

    fn shl(&self, n: u32) -> Big {
        let (limbs, bits) = ((n / 64) as usize, n % 64);
        let mut out = vec![0u64; limbs];
        let mut carry = 0u64;
        for &limb in &self.0 {
            out.push(limb << bits | carry);
            carry = if bits == 0 { 0 } else { limb >> (64 - bits) };
        }
        out.push(carry);
        Big::trimmed(out)
    }

    fn shr(&self, n: u32) -> Big {
        let (limbs, bits) = ((n / 64) as usize, n % 64);
        let src = self.0.get(limbs..).unwrap_or(&[]);
        let out = (0..src.len())
            .map(|i| {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                if bits == 0 {
                    src[i]
                } else {
                    src[i] >> bits | hi << (64 - bits)
                }
            })
            .collect();
        Big::trimmed(out)
    }

    fn cmp(&self, other: &Big) -> Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }

    /// `self -= other`, for `self >= other`.
    fn sub_assign(&mut self, other: &Big) {
        let mut borrow = false;
        for (i, limb) in self.0.iter_mut().enumerate() {
            let (d, b1) = limb.overflowing_sub(other.0.get(i).copied().unwrap_or(0));
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *limb = d;
            borrow = b1 || b2;
        }
        assert!(!borrow, "big-integer subtraction underflowed");
        *self = Big::trimmed(std::mem::take(&mut self.0));
    }

    fn to_u128(&self) -> u128 {
        assert!(self.0.len() <= 2, "value does not fit in 128 bits");
        self.0
            .iter()
            .rev()
            .fold(0u128, |acc, &limb| acc << 64 | limb as u128)
    }
}

/// `10^n` for every `n` the checks and the table need.
struct Pow10(Vec<Big>);

impl Pow10 {
    fn new(max: i32) -> Pow10 {
        let mut all = vec![Big(vec![1])];
        for _ in 0..max {
            let next = all[all.len() - 1].mul_small(10);
            all.push(next);
        }
        Pow10(all)
    }

    fn get(&self, n: i32) -> &Big {
        &self.0[usize::try_from(n).expect("negative power of ten")]
    }

    /// Compares `a · 2^x · 10^y` with `b · 2^u · 10^w` exactly.
    fn cmp_scaled(&self, (a, x, y): (u64, i32, i32), (b, u, w): (u64, i32, i32)) -> Ordering {
        let (x0, y0) = (x.min(u), y.min(w));
        let lhs = self.get(y - y0).mul_small(a).shl((x - x0) as u32);
        let rhs = self.get(w - y0).mul_small(b).shl((u - x0) as u32);
        lhs.cmp(&rhs)
    }

    /// Whether `10^k <= m · 2^q < 10^(k+1)`, i.e. `k = floor(log10(m · 2^q))`.
    fn is_floor_log10(&self, k: i32, (m, q): (u64, i32)) -> bool {
        self.cmp_scaled((1, 0, k), (m, q, 0)) != Ordering::Greater
            && self.cmp_scaled((m, q, 0), (1, 0, k + 1)) == Ordering::Less
    }
}

/// `floor(2^m / d)`, by long division one bit at a time; the quotient
/// must fit in 128 bits.
fn pow2_div(m: u32, d: &Big) -> u128 {
    let mut rem = Big(vec![1]);
    let mut q = 0u128;
    for step in 0..=m {
        if step > 0 {
            rem = rem.shl(1);
        }
        assert!(q >> 127 == 0, "quotient does not fit in 128 bits");
        q <<= 1;
        if rem.cmp(d) != Ordering::Less {
            rem.sub_assign(d);
            q |= 1;
        }
    }
    q
}

fn check_logarithms(p10: &Pow10) {
    for q in Q_MIN..=Q_MAX {
        assert!(
            p10.is_floor_log10(flog10pow2(q), (1, q)),
            "flog10pow2({q}) is off"
        );
        assert!(
            p10.is_floor_log10(flog10_three_quarters_pow2(q), (3, q - 2)),
            "flog10_three_quarters_pow2({q}) is off"
        );
    }
    for e in -K_MAX..=-K_MIN {
        let f = flog2pow10(e);
        // 2^f <= 10^e < 2^(f+1)
        let lo = p10.cmp_scaled((1, f, 0), (1, 0, e)) != Ordering::Greater;
        let hi = p10.cmp_scaled((1, 0, e), (1, f + 1, 0)) == Ordering::Less;
        assert!(lo && hi, "flog2pow10({e}) is off");
    }
}

fn g(p10: &Pow10, k: i32) -> u128 {
    let e = -k;
    let r = flog2pow10(e) - 125;
    let floor = if e >= 0 {
        let n = p10.get(e);
        if r >= 0 {
            n.shr(r as u32).to_u128()
        } else {
            n.shl((-r) as u32).to_u128()
        }
    } else {
        // 10^e · 2^(-r) = 2^(-r) / 10^(-e), with -r > 0 here.
        pow2_div((-r) as u32, p10.get(-e))
    };
    let g = floor + 1;
    assert!(
        g >> 125 == 1,
        "g({k}) lies outside [2^125, 2^126): bit length {}",
        128 - g.leading_zeros()
    );
    g
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=src/flog.rs");
    let p10 = Pow10::new(-K_MIN + 1);
    check_logarithms(&p10);

    let len = (K_MAX - K_MIN + 1) as usize;
    let mut src = String::new();
    let _ = writeln!(
        src,
        "// Generated by build.rs: g(k) = floor(10^(-k) · 2^(125 - flog2pow10(-k))) + 1\n\
         // for k in [K_MIN, K_MAX], at index k - K_MIN.\n\
         const K_MIN: i32 = {K_MIN};\n\
         const G: [u128; {len}] = ["
    );
    for k in K_MIN..=K_MAX {
        let _ = writeln!(src, "    0x{:032x},", g(&p10, k));
    }
    src.push_str("];\n");

    let out_dir = std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR for build scripts");
    let path = std::path::Path::new(&out_dir).join("pow10.rs");
    std::fs::write(&path, src).expect("write the generated power-of-ten table");
}
