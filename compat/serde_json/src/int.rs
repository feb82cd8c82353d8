//! The JSON printer's integer path: decimal digits two at a time from a
//! table of the hundred digit pairs, written right to left into a stack
//! buffer and appended in one copy. The bytes are std's `Display`'s,
//! which the tests check every integer type against.

/// `"00" "01" … "99"`: the two digits of `n` start at byte `2n`.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `u` in decimal.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut u: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while u >= 100 {
        let pair = (u % 100) as usize * 2;
        u /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if u >= 10 {
        let pair = u as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + u as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `i` in decimal, with a `-` when negative.
pub(crate) fn push_i64(out: &mut Vec<u8>, i: i64) {
    if i < 0 {
        out.push(b'-');
    }
    push_u64(out, i.unsigned_abs());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

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

    /// Reused buffers for the printer under test and for std's `Display`.
    #[derive(Default)]
    struct Check {
        ours: Vec<u8>,
        oracle: String,
    }

    impl Check {
        fn unsigned(&mut self, u: u64, shown: impl std::fmt::Display) {
            self.ours.clear();
            push_u64(&mut self.ours, u);
            self.compare(shown);
        }

        fn signed(&mut self, i: i64, shown: impl std::fmt::Display) {
            self.ours.clear();
            push_i64(&mut self.ours, i);
            self.compare(shown);
        }

        fn compare(&mut self, shown: impl std::fmt::Display) {
            self.oracle.clear();
            let _ = write!(self.oracle, "{shown}");
            assert_eq!(
                self.ours,
                self.oracle.as_bytes(),
                "{}",
                String::from_utf8_lossy(&self.ours)
            );
        }

        /// `w` as every integer type the serde shim serializes, each
        /// widened the way its `Serialize` impl widens it.
        fn every_type(&mut self, w: u64) {
            self.unsigned(w as u8 as u64, w as u8);
            self.unsigned(w as u16 as u64, w as u16);
            self.unsigned(w as u32 as u64, w as u32);
            self.unsigned(w, w);
            self.unsigned(w as usize as u64, w as usize);
            self.signed(w as i8 as i64, w as i8);
            self.signed(w as i16 as i64, w as i16);
            self.signed(w as i32 as i64, w as i32);
            self.signed(w as i64, w as i64);
            self.signed(w as isize as i64, w as isize);
        }
    }

    /// 0, 10^k − 1 and 10^k for every power that fits, and each type's
    /// MIN and MAX (through the same truncating casts as the seeded
    /// values, so every type sees its own edges).
    #[test]
    fn matches_std_on_edge_values() {
        let mut check = Check::default();
        check.every_type(0);
        let mut p = 1u64;
        loop {
            for w in [p - 1, p, p.wrapping_neg(), (p - 1).wrapping_neg()] {
                check.every_type(w);
            }
            match p.checked_mul(10) {
                Some(next) => p = next,
                None => break,
            }
        }
        for w in [
            u8::MAX as u64,
            u16::MAX as u64,
            u32::MAX as u64,
            u64::MAX,
            i8::MIN as u64,
            i8::MAX as u64,
            i16::MIN as u64,
            i16::MAX as u64,
            i32::MIN as u64,
            i32::MAX as u64,
            i64::MIN as u64,
            i64::MAX as u64,
        ] {
            check.every_type(w);
        }
    }

    /// Seeded words, each also shifted right by a seeded amount so that
    /// every digit count occurs, not mostly 19- and 20-digit values.
    fn seeded(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        Words(seed)
            .take(n)
            .map(|w| if w & 1 == 0 { w } else { w >> (w >> 58) })
    }

    #[test]
    fn matches_std_on_seeded_values() {
        let mut check = Check::default();
        for w in seeded(0x5EED_0A17, 200_000) {
            check.every_type(w);
        }
    }

    /// Through the printer: each type's `Serialize` impl reaches these
    /// writers.
    #[test]
    fn every_integer_type_prints_through_to_string() {
        assert_eq!(crate::to_string(&u8::MAX).unwrap(), "255");
        assert_eq!(crate::to_string(&u16::MAX).unwrap(), "65535");
        assert_eq!(crate::to_string(&u32::MAX).unwrap(), "4294967295");
        assert_eq!(crate::to_string(&u64::MAX).unwrap(), "18446744073709551615");
        assert_eq!(crate::to_string(&usize::MIN).unwrap(), "0");
        assert_eq!(crate::to_string(&i8::MIN).unwrap(), "-128");
        assert_eq!(crate::to_string(&i16::MIN).unwrap(), "-32768");
        assert_eq!(crate::to_string(&i32::MIN).unwrap(), "-2147483648");
        assert_eq!(crate::to_string(&i64::MIN).unwrap(), "-9223372036854775808");
        assert_eq!(
            crate::to_string(&isize::MAX).unwrap(),
            isize::MAX.to_string()
        );
    }

    #[test]
    #[ignore = "sweep; run with --release, INT_SWEEP_N sets the size"]
    fn sweep_matches_std() {
        let n = std::env::var("INT_SWEEP_N")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10_000_000);
        let seed = std::env::var("INT_SWEEP_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5EED_5EE9);
        let mut check = Check::default();
        for w in seeded(seed, n) {
            check.every_type(w);
        }
    }
}
