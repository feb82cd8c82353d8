//! The JSON printer's `f64` path: the shortest decimal that reads back
//! as the same double, in the notation of std's `Display` (`{}`), plus
//! the `.0` that keeps an integral float a float in JSON.
//!
//! The digits come from Giulietti's Schubfach ("The Schubfach way to
//! render doubles", 2020), with two changes that make them std's digits
//! rather than the reference's:
//! - when two candidates of the shortest length lie equally close, std
//!   takes the one away from zero; the reference takes the even one;
//! - every subnormal takes the plain path. The reference widens doubles
//!   below `3 · 2^-1074` to two digits (`4.9E-324`); std prints `5e-324`.
//!   For the same reason the shorter candidate is tried at every length,
//!   not only from three digits up.
//!
//! The notation is std's fixed one: no exponent, `0.000ddd` below one,
//! trailing zeros above the digits, a `-` on every negative (`-0.0`
//! included). The power-of-ten table `G` is generated at build time from
//! exact integer arithmetic (`build.rs`); std's `Display` is the tests'
//! oracle.

use crate::flog::{flog10_three_quarters_pow2, flog10pow2, flog2pow10};

include!(concat!(env!("OUT_DIR"), "/pow10.rs"));

/// The hidden bit: significands of normal doubles lie in `[C_MIN, 2·C_MIN)`.
const C_MIN: u64 = 1 << 52;
/// The ulp exponent of subnormals and of the smallest normals.
const Q_MIN: i32 = -1074;

/// `10^i` for every `i` below 18.
const POW10: [u64; 18] = {
    let mut p = [1u64; 18];
    let mut i = 1;
    while i < 18 {
        p[i] = 10 * p[i - 1];
        i += 1;
    }
    p
};

/// Appends `x`, which must be finite, as std's `format!("{x}")` prints
/// it, followed by `.0` when that has no decimal point.
pub(crate) fn push_f64(out: &mut Vec<u8>, x: f64) {
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let t = bits & (C_MIN - 1);
    let bq = (bits >> 52 & 0x7ff) as i32;
    let (f, e) = if bq != 0 {
        // x = c · 2^-mq
        let mq = 1075 - bq;
        let c = C_MIN | t;
        if 0 < mq && mq < 53 && c & ((1 << mq) - 1) == 0 {
            // An integer below 2^53 is its own shortest decimal.
            (c >> mq, 0)
        } else {
            to_decimal(-mq, c)
        }
    } else if t != 0 {
        to_decimal(Q_MIN, t)
    } else {
        out.extend_from_slice(b"0.0");
        return;
    };
    push_fixed(out, f, e);
}

/// The shortest `f · 10^e` inside the rounding interval of `c · 2^q`,
/// the closest one to it if there are several, the one away from zero on
/// an exact tie.
#[inline]
fn to_decimal(q: i32, c: u64) -> (u64, i32) {
    // An even significand rounds ties to itself, so its interval is closed.
    let out = c & 1;
    // Interval ends and the value, in quarter ulps.
    let cb = c << 2;
    let cbr = cb + 2;
    let (cbl, k) = if c != C_MIN || q == Q_MIN {
        (cb - 2, flog10pow2(q))
    } else {
        // Above a power of two the ulp doubles, so the lower gap is half.
        (cb - 1, flog10_three_quarters_pow2(q))
    };
    // The scaled ends are round-to-odd `· 10^-k`, still in quarter units.
    let h = q + flog2pow10(-k) + 2;
    let g = G[(k - K_MIN) as usize];
    let vb = rop(g, cb << h);
    let vbl = rop(g, cbl << h);
    let vbr = rop(g, cbr << h);

    // The candidates below are chosen without branches: which one wins
    // depends on the value's low digits, which no predictor can guess.
    let s = vb >> 2;
    // At most one multiple of ten lies inside; if exactly one does, it is
    // the shortest candidate.
    let sp10 = 10 * (s / 10);
    let upin = vbl + out <= sp10 << 2;
    let wpin = ((sp10 + 10) << 2) + out <= vbr;
    let shorter = sp10 + 10 * wpin as u64;
    // Otherwise at least one of s and s + 1 lies inside: s + 1 when s does
    // not, or when both do and s + 1 is at least as close.
    let uin = vbl + out <= s << 2;
    let win = ((s + 1) << 2) + out <= vbr;
    let closer = s + (win & (!uin | (vb >= 4 * s + 2))) as u64;
    let use_shorter = 0u64.wrapping_sub((upin != wpin) as u64);
    (shorter & use_shorter | closer & !use_shorter, k)
}

/// `g · cp / 2^127`, rounded to odd, as the reference computes it: `g` in
/// 63-bit limbs `g1 · 2^63 + g0`, with the low half of `g0 · cp` and the
/// lowest bit of `g1 · cp` left out. That keeps the `+ 1` of `g(k)` out of
/// the sticky bit where `10^-k` is exact, so an interval end that is
/// itself a short decimal stays inside a closed interval.
fn rop(g: u128, cp: u64) -> u64 {
    const MASK_63: u64 = u64::MAX >> 1;
    let (g1, g0) = ((g >> 63) as u64, g as u64 & MASK_63);
    let x1 = ((g0 as u128 * cp as u128) >> 64) as u64;
    let y = g1 as u128 * cp as u128;
    let z = (y as u64 >> 1) + x1;
    let vbp = (y >> 64) as u64 + (z >> 63);
    vbp | ((z & MASK_63) + MASK_63) >> 63
}

/// The eight decimal digits of `x < 10^8` as byte values `0..=9`, first
/// digit in the lowest byte, computed in lanes of one word.
fn digits8(x: u32) -> u64 {
    let x = x as u64;
    // Two lanes of four digits, then four of two, then eight of one; each
    // step divides every lane by a constant with a multiply and a shift
    // that is exact on the lane's range.
    let x = (x / 10_000) | ((x % 10_000) << 32);
    let hi = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = hi | (x - 100 * hi) << 16;
    let hi = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    hi | (x - 10 * hi) << 8
}

/// `w` with `.` inserted at byte `i < 8`, and the byte pushed out of
/// its top.
fn insert_point(w: u64, i: usize) -> (u64, u64) {
    let low = (1u64 << (8 * i)) - 1;
    let with_point = (w & low) | ((b'.' as u64) << (8 * i)) | ((w & !low) << 8);
    (with_point, w >> 56)
}

/// Appends `f · 10^e` (`1 <= f < 10^17`) in fixed notation.
fn push_fixed(out: &mut Vec<u8>, f: u64, e: i32) {
    const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;
    // The digits go right-aligned to `END` as a 17-digit field, a digit
    // and two words of eight, in a '0'-filled buffer. Every value from
    // 1e-13 up to 1e30 is then printed from `buf` in one piece.
    const END: usize = 32;
    let mut buf = [b'0'; 64];
    let (hi, lo) = (f / 100_000_000, (f % 100_000_000) as u32);
    let top = b'0' + (hi / 100_000_000) as u8;
    let (mid, lo) = (digits8((hi % 100_000_000) as u32), digits8(lo));
    // f has `len` digits: `flog10pow2` of its bit length, or one more.
    let mut len = flog10pow2(64 - f.leading_zeros() as i32) as usize;
    len += (f >= POW10[len]) as usize;
    // Trailing zero digits are the zero bytes at the top of each word.
    let zeros_lo = (lo.leading_zeros() / 8) as usize;
    let zeros = zeros_lo
        + if zeros_lo == 8 {
            (mid.leading_zeros() / 8) as usize
        } else {
            0
        };
    let (mid, lo) = (mid | ASCII_ZEROS, lo | ASCII_ZEROS);
    let (start, end) = (END - len, END - zeros);
    // Digits before the decimal point; the digits kept are `start..end`.
    let point = len as i32 + e;
    let inside = point > 0 && (point as usize) < end - start;
    let (mid, lo, last) = if inside {
        // The point falls among the digits: insert it into the word it
        // falls in, shifting what follows one place right.
        let at = 17 - len + point as usize - 1;
        if at < 8 {
            let (mid, carry) = insert_point(mid, at);
            (mid, carry | (lo << 8), lo >> 56)
        } else {
            let (lo, carry) = insert_point(lo, at - 8);
            (mid, lo, carry)
        }
    } else {
        (mid, lo, b'0' as u64)
    };
    buf[END - 17] = top;
    buf[END - 16..END - 8].copy_from_slice(&mid.to_le_bytes());
    buf[END - 8..END].copy_from_slice(&lo.to_le_bytes());
    buf[END] = last as u8;
    let (from, to) = if inside {
        (start, end + 1)
    } else if point <= 0 {
        // "0." and -point zeros, which the buffer already holds.
        let lead = (2 - point) as usize;
        if lead > start {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + lead - 2, b'0');
            out.extend_from_slice(&buf[start..end]);
            return;
        }
        buf[start - lead + 1] = b'.';
        (start - lead, end)
    } else {
        // Integral: the digits, zeros up to the point, then ".0".
        let dot = start + point as usize;
        if dot + 2 > start + 32 {
            out.extend_from_slice(&buf[start..end]);
            out.resize(out.len() + dot - end, b'0');
            out.extend_from_slice(b".0");
            return;
        }
        buf[dot] = b'.';
        (start, dot + 2)
    };
    // Copy a fixed 32 bytes, which compiles to a few wide moves, then cut
    // back to the number's length.
    let n = out.len();
    out.extend_from_slice(&buf[from..from + 32]);
    out.truncate(n + (to - from));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The independent reference for `g(k)` where `10^-k` fits in a
    /// `u128`: `10^-k` shifted to 126 bits, plus one.
    fn g_u128(k: i32) -> u128 {
        let p = 10u128.pow((-k) as u32);
        let bits = 128 - p.leading_zeros() as i32;
        let shift = bits - 126;
        let floor = if shift >= 0 { p >> shift } else { p << -shift };
        floor + 1
    }

    #[test]
    fn table_entries_are_126_bit() {
        assert_eq!(G.len(), 617);
        assert_eq!(K_MIN, -324);
        for (i, &g) in G.iter().enumerate() {
            assert!(g >> 125 == 1, "g({}) = {g:#x}", i as i32 + K_MIN);
        }
    }

    #[test]
    fn table_matches_u128_powers_of_ten() {
        for k in -38..=0 {
            assert_eq!(G[(k - K_MIN) as usize], g_u128(k), "g({k})");
        }
    }

    /// The oracle: std's `Display` plus the shim's `.0` rule.
    fn std_json(x: f64, out: &mut String) {
        use std::fmt::Write as _;
        out.clear();
        let _ = write!(out, "{x}");
        if !out.contains('.') {
            out.push_str(".0");
        }
    }

    /// Checks `x` and `-x` against the oracle, reusing the two buffers.
    fn check(x: f64, ours: &mut Vec<u8>, oracle: &mut String) {
        for v in [x, -x] {
            ours.clear();
            push_f64(ours, v);
            std_json(v, oracle);
            assert_eq!(ours, oracle.as_bytes(), "bits {:#018x}", v.to_bits());
        }
    }

    /// splitmix64: a seeded stream of 64-bit words.
    struct Words(u64);

    impl Iterator for Words {
        type Item = u64;
        fn next(&mut self) -> Option<u64> {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            Some(z ^ (z >> 31))
        }
    }

    /// `n` doubles from `seed`: even draws are random finite bit
    /// patterns, odd draws uniform in `[0, 1000)`, the millisecond scale
    /// of schedules, latest start times and energies.
    fn seeded(seed: u64, n: usize) -> impl Iterator<Item = f64> {
        Words(seed)
            .enumerate()
            .map(|(i, w)| {
                if i % 2 == 0 {
                    f64::from_bits(w)
                } else {
                    (w >> 11) as f64 * (1000.0 / (1u64 << 53) as f64)
                }
            })
            .filter(|x| x.is_finite())
            .take(n)
    }

    #[test]
    fn matches_std_on_seeded_values() {
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        for x in seeded(0x5EED_F10A7, 200_000) {
            check(x, &mut ours, &mut oracle);
        }
    }

    /// Checks `x` and its two neighbouring doubles, where finite.
    fn check_around(x: f64, ours: &mut Vec<u8>, oracle: &mut String) {
        let b = x.to_bits();
        for bits in [b.wrapping_sub(1), b, b + 1] {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                check(v, ours, oracle);
            }
        }
    }

    #[test]
    fn matches_std_on_powers_of_ten() {
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        for k in -323..=308 {
            let x = format!("1e{k}").parse().unwrap();
            check_around(x, &mut ours, &mut oracle);
        }
    }

    #[test]
    fn matches_std_on_powers_of_two() {
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        // The subnormal powers 2^-1074..2^-1023, then every exponent.
        for bits in (0..52).map(|i| 1u64 << i).chain((1..2047).map(|e| e << 52)) {
            check_around(f64::from_bits(bits), &mut ours, &mut oracle);
        }
    }

    #[test]
    fn matches_std_on_subnormals() {
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        // The smallest subnormals, where the shortest decimal has one or
        // two digits, and the largest ones.
        for c in (1..20_000).chain((1u64 << 52) - 20_000..1 << 52) {
            check_around(f64::from_bits(c), &mut ours, &mut oracle);
        }
    }

    #[test]
    fn matches_std_on_large_integers() {
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        // Integers from 1e16 up, where Display prints trailing zeros, and
        // the integral doubles around 2^53.
        for x in [1e16, 1.2345678901234567e16, 3e17, 1e21, 1e22, 1e23, 9.5e200] {
            check_around(x, &mut ours, &mut oracle);
        }
        for i in 0..2_000u64 {
            check_around(((1u64 << 53) - 1_000 + i) as f64, &mut ours, &mut oracle);
        }
    }

    #[test]
    fn matches_std_on_special_values() {
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        for x in [
            0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            1e-323,
            0.1,
            0.3,
            1.0,
        ] {
            check_around(x, &mut ours, &mut oracle);
        }
    }

    fn show(x: f64) -> String {
        let mut s = Vec::new();
        push_f64(&mut s, x);
        String::from_utf8(s).unwrap()
    }

    #[test]
    fn pins_the_fixed_notation() {
        assert_eq!(show(0.0), "0.0");
        assert_eq!(show(-0.0), "-0.0");
        assert_eq!(show(4.0), "4.0");
        assert_eq!(show(-2.5), "-2.5");
        assert_eq!(show(1e21), "1000000000000000000000.0");
        assert_eq!(show(0.001), "0.001");
    }

    #[test]
    fn pins_the_extremes() {
        assert_eq!(show(5e-324), format!("0.{}5", "0".repeat(323)));
        assert_eq!(show(1e-323), format!("0.{}1", "0".repeat(322)));
        assert_eq!(
            show(f64::MAX),
            format!("17976931348623157{}.0", "0".repeat(292))
        );
    }

    #[test]
    fn pins_ties_away_from_zero() {
        // Exact ties between two shortest candidates: std rounds away
        // from zero, where textbook Schubfach and Ryu round half-even.
        assert_eq!(show(2f64.powi(-25)), "0.000000029802322387695313");
        assert_eq!(show(1658206780088562.0 + 0.25), "1658206780088562.3");
    }

    #[test]
    #[ignore = "sweep; run with --release, FLOAT_SWEEP_N sets the size"]
    fn sweep_matches_std() {
        let n = std::env::var("FLOAT_SWEEP_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000_000);
        let seed = std::env::var("FLOAT_SWEEP_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5EED_5EE9);
        let (mut ours, mut oracle) = (Vec::new(), String::new());
        for x in seeded(seed, n) {
            check(x, &mut ours, &mut oracle);
        }
    }

    #[test]
    fn rop_rounds_to_odd() {
        // 2^125 · cp / 2^127 = cp / 4: exact, or odd when bits drop.
        assert_eq!(rop(1 << 125, 12), 3);
        assert_eq!(rop(1 << 125, 8), 2);
        assert_eq!(rop(1 << 125, 10), 3);
        assert_eq!(rop(1 << 125, 13), 3);
        // The `+ 1` in g's low limb stays below the sticky bit.
        assert_eq!(rop((1 << 125) + 1, 8), 2);
    }

    /// `v` is within float error of an integer only where it is one, so
    /// its `f64` floor is an independent oracle for the `flog` estimates.
    fn f64_floor(v: f64) -> i32 {
        let near = (v - v.round()).abs();
        assert!(v == 0.0 || near > 1e-9, "{v} is too close to an integer");
        v.floor() as i32
    }

    #[test]
    fn flog10pow2_matches_f64_log() {
        for q in -1074..=971 {
            let want = f64_floor(q as f64 * std::f64::consts::LOG10_2);
            assert_eq!(flog10pow2(q), want, "q = {q}");
        }
    }

    #[test]
    fn flog10_three_quarters_pow2_matches_f64_log() {
        for q in -1074..=971 {
            let want = f64_floor(0.75f64.log10() + q as f64 * std::f64::consts::LOG10_2);
            assert_eq!(flog10_three_quarters_pow2(q), want, "q = {q}");
        }
    }

    #[test]
    fn flog2pow10_matches_f64_log() {
        for e in -292..=324 {
            let want = f64_floor(e as f64 * std::f64::consts::LOG2_10);
            assert_eq!(flog2pow10(e), want, "e = {e}");
        }
    }

    #[test]
    fn digits8_lays_out_decimal_digits() {
        let edges = [0, 1, 9, 10, 99_999_999, 10_000_000, 12_345_678];
        for x in (0..100_000_000).step_by(9_973).chain(edges) {
            let mut want = [0u8; 8];
            for (d, c) in want.iter_mut().zip(format!("{x:08}").bytes()) {
                *d = c - b'0';
            }
            assert_eq!(digits8(x).to_le_bytes(), want, "x = {x}");
        }
    }

    #[test]
    fn insert_point_shifts_the_rest_right() {
        let w = u64::from_le_bytes(*b"abcdefgh");
        for i in 0..8 {
            let (with_point, out) = insert_point(w, i);
            let want = format!("{}.{}", &"abcdefgh"[..i], &"abcdefgh"[i..7]);
            assert_eq!(&with_point.to_le_bytes(), want.as_bytes(), "i = {i}");
            assert_eq!(out, b'h' as u64, "i = {i}");
        }
    }

    #[test]
    fn to_decimal_finds_the_shortest_digits() {
        // `c · 2^q` of a finite positive double, as `push_f64` splits it.
        let split = |x: f64| {
            let bits = x.to_bits();
            let (t, bq) = (bits & (C_MIN - 1), (bits >> 52) as i32);
            if bq == 0 {
                (Q_MIN, t)
            } else {
                (bq - 1075, C_MIN | t)
            }
        };
        for (x, want) in [
            (0.1, (1, -1)),
            (123.456, (123_456, -3)),
            (1e23, (1, 23)),
            (f64::MAX, (17_976_931_348_623_157, 292)),
            (f64::MIN_POSITIVE, (22_250_738_585_072_014, -324)),
            (5e-324, (5, -324)),
            // The tie goes away from zero: ...3125 -> ...313.
            (2f64.powi(-25), (29_802_322_387_695_313, -24)),
        ] {
            let (q, c) = split(x);
            // `f` may carry trailing zeros, which `push_fixed` drops.
            let (mut f, mut e) = to_decimal(q, c);
            while f % 10 == 0 {
                (f, e) = (f / 10, e + 1);
            }
            assert_eq!((f, e), want, "x = {x:e}");
        }
    }
}
