// Integer estimates of the logarithms the float printer needs, as
// multiply-and-shift on `i64`. The build script checks each one against
// exact big-integer arithmetic over the whole range the printer uses and
// fails the build on any disagreement, so the run-time exponents and the
// generated power-of-ten table cannot drift apart.

/// `floor(q · log10(2))`, exact for `q` in `[-1074, 971]`.
pub(crate) const fn flog10pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083) >> 41) as i32
}

/// `floor(log10(3/4 · 2^q))`, exact for `q` in `[-1074, 971]`.
pub(crate) const fn flog10_three_quarters_pow2(q: i32) -> i32 {
    ((q as i64 * 661_971_961_083 - 274_743_187_321) >> 41) as i32
}

/// `floor(e · log2(10))`, exact for `e` in `[-292, 324]`.
pub(crate) const fn flog2pow10(e: i32) -> i32 {
    ((e as i64 * 913_124_641_741) >> 38) as i32
}
