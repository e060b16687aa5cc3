//! Exact writer and reader for the numeric-block token `{:.16e}`.
//!
//! Every value in a numeric block is written as `format!("{v:.16e}")`
//! would write it: 17 significant digits, correctly rounded half-to-even,
//! lower-case `e`, and an exponent without `+` or zero padding. This
//! module writes the same bytes straight from the IEEE-754 bits with
//! integer arithmetic instead of going through the generic formatter.
//!
//! For `|v| = m·2^e` (53-bit `m`) with decimal exponent `k = ⌊log10 |v|⌋`,
//! the digits are `round(|v|·10^(16−k)) = round(m·5^q·2^(e+q))` with
//! `q = 16 − k`. When `2^-53 ≤ |v| < 1e17`, `q` lies in `0..=32`, so
//! `m·5^q < 2^128` is one `u128` product and the power of two is a shift
//! whose shifted-out bits decide the rounding. The sign and the `e<k>`
//! suffix are copied from fixed places, and each group of eight digits is
//! split out in the lanes of one `u64`. Everything else (zero, subnormals
//! and other values below `2^-53`, values from `1e17` up, NaN and ±inf)
//! takes std formatting, which is also the oracle the tests compare
//! against.
//!
//! [`parse_prefix`] reads the same token back. Its 17 digits form one
//! integer `w`, and with `q` = exponent − 16 the value is `w·10^q`
//! correctly rounded, which the Eisel–Lemire algorithm (Lemire, "Number
//! Parsing at a Gigabyte per Second", arXiv:2101.11408) computes from one
//! or two 64×64-bit products with a normalized 128-bit `5^q`. Tokens of any
//! other shape, and exponents outside the table, return `None` so the
//! caller takes `str::parse::<f64>`, the oracle the tests compare with.

use std::fmt;
use std::io::Write as _;

/// `5^q` for `q` in `0..=32`.
static POW5: [u128; 33] = {
    let mut t = [1u128; 33];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 5;
        i += 1;
    }
    t
};

/// Exponents the exact path writes: `⌊log10 |v|⌋` for `2^-53 ≤ |v| < 1e17`.
const K_MIN: i32 = -16;
const K_MAX: i32 = 16;

/// The token's tail `e<k>` for each `k` in `K_MIN..=K_MAX` (index
/// `k − K_MIN`), padded to four bytes, with its length.
static EXP_SUFFIX: [([u8; 4], usize); (K_MAX - K_MIN + 1) as usize] = {
    let mut t = [([0u8; 4], 0); (K_MAX - K_MIN + 1) as usize];
    let mut i = 0;
    while i < t.len() {
        let k = K_MIN + i as i32;
        let (mut s, mut n) = ([b'e', 0, 0, 0], 1);
        if k < 0 {
            s[n] = b'-';
            n += 1;
        }
        let a = k.unsigned_abs() as u8;
        if a >= 10 {
            s[n] = b'0' + a / 10;
            n += 1;
        }
        s[n] = b'0' + a % 10;
        t[i] = (s, n + 1);
        i += 1;
    }
    t
};

/// Smallest magnitude the exact path writes: `2^-53`, where `q` reaches 32.
const EXACT_MIN: f64 = 1.0 / (1u64 << 53) as f64;
/// Magnitudes from here up would need `q < 0` (a division by `5^-q`).
const EXACT_LIMIT: f64 = 1e17;
/// `10^16` and `10^17`: the digit integer lies in `[10^16, 10^17)`.
const E16: u64 = 10_000_000_000_000_000;
const E17: u64 = 100_000_000_000_000_000;
/// Longest token std writes for an `f64`: sign, 17 digits, `.`, `e`, `-`
/// and three exponent digits. The exact path's tokens are one shorter.
pub(crate) const TOKEN_MAX: usize = 24;

/// Writes `v` exactly as `write!(out, "{v:.16e}")` would at the start of
/// `out`, and returns the token's length.
pub(crate) fn write(v: f64, out: &mut [u8; TOKEN_MAX]) -> usize {
    if let Some(n) = exact(v, out) {
        return n;
    }
    let mut rest = &mut out[..];
    write!(rest, "{v:.16e}").expect("an f64 token fits TOKEN_MAX bytes");
    TOKEN_MAX - rest.len()
}

/// Displays an `f64` as the numeric-block token, for header fields that
/// carry one (`DT`, `AXIS-UNIFORM`). Formatting flags are ignored.
#[derive(Clone, Copy)]
pub(crate) struct Sci16(pub f64);

impl fmt::Display for Sci16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; TOKEN_MAX];
        let n = write(self.0, &mut buf);
        f.write_str(ascii(&buf[..n]))
    }
}

/// The writer's output as text; it emits only ASCII digits, `-`, `.`, `e`
/// and std's `NaN` and `inf`.
pub(crate) fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the writer emits only ASCII")
}

/// `⌊m·5^q·2^(e+q)⌋` and whether rounding half-to-even adds one.
fn scaled(m: u64, e: i32, q: i32) -> (u128, bool) {
    let p = m as u128 * POW5[q as usize];
    let s = e + q;
    if s >= 0 {
        return (p << s, false);
    }
    let sh = s.unsigned_abs();
    let d = p >> sh;
    let rem = p & ((1u128 << sh) - 1);
    let half = 1u128 << (sh - 1);
    (d, rem > half || (rem == half && d & 1 == 1))
}

/// Writes the token into `buf` and returns its length, or `None` when `v`
/// is outside the exact range.
fn exact(v: f64, buf: &mut [u8; TOKEN_MAX]) -> Option<usize> {
    let a = v.abs();
    if !(EXACT_MIN..EXACT_LIMIT).contains(&a) {
        return None;
    }
    // In range, `a` is normal: `a = m·2^e` with the implicit bit set.
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    let e = biased - 1075;
    // ⌊(biased − 1023)·log10 2⌋ is ⌊log10 a⌋ or one less.
    let mut k = ((biased - 1023) * 78913) >> 18;
    let (mut d, mut up) = scaled(m, e, 16 - k);
    if d >= E17 as u128 {
        k += 1;
        (d, up) = scaled(m, e, 16 - k);
    }
    let mut d = d as u64 + u64::from(up);
    if d == E17 {
        // 9.99…95 rounded up to 10: one digit longer, so carry into k.
        d = E16;
        k += 1;
    }

    // The `-` always goes in; a positive token starts after it.
    let s = usize::from(v.is_sign_negative());
    buf[0] = b'-';
    let lead = d / E16;
    let rest = d - lead * E16;
    buf[s] = b'0' + lead as u8;
    buf[s + 1] = b'.';
    buf[s + 2..s + 10].copy_from_slice(&digits8((rest / 100_000_000) as u32));
    buf[s + 10..s + 18].copy_from_slice(&digits8((rest % 100_000_000) as u32));
    let (suffix, len) = EXP_SUFFIX[(k - K_MIN) as usize];
    buf[s + 18..s + 22].copy_from_slice(&suffix);
    Some(s + 18 + len)
}

/// `x < 10^8` as exactly eight ASCII digits. The two four-digit halves,
/// then their digit pairs, then the digits split apart in the lanes of one
/// `u64`, with multiply-shift quotients instead of divisions (Lemire,
/// "Converting integers to fixed-digit representations quickly", 2021).
fn digits8(x: u32) -> [u8; 8] {
    let x = u64::from(x);
    // 32-bit lanes: the first four digits low, the last four high.
    let v = (x / 10_000) | ((x % 10_000) << 32);
    // `⌊y·10486 / 2^20⌋ = ⌊y/100⌋` for `y < 10^4`: each lane's first pair.
    let hi = ((v * 10_486) >> 20) & ((0x7f << 32) | 0x7f);
    // 16-bit lanes, pairs in output order.
    let v = ((v - 100 * hi) << 16) | hi;
    // `⌊y·103 / 2^10⌋ = ⌊y/10⌋` for `y < 100`: each pair's first digit.
    let hi = ((v * 103) >> 10) & 0x000f_000f_000f_000f;
    // Bytes, digits in output order.
    let v = ((v - 10 * hi) << 8) | hi;
    (v | 0x3030_3030_3030_3030).to_le_bytes()
}

/// The range of `q` = exponent − 16 the reader's table covers: printed
/// exponents `-11..=43`. In it every 17-digit value is a normal `f64`.
const Q_MIN: i32 = -27;
const Q_MAX: i32 = 27;

/// `5^q` for `q` in `Q_MIN..=Q_MAX` (index `q − Q_MIN`), normalized so
/// bit 127 is set. Entries for `q ≥ 0` are exact (`5^27 < 2^63`); for
/// `q < 0` they are `⌊2^b / 5^−q⌋ + 1` with `b = ⌈log2 5^−q⌉ + 127`.
static POW5_128: [u128; (Q_MAX - Q_MIN + 1) as usize] = {
    let mut t = [0u128; (Q_MAX - Q_MIN + 1) as usize];
    let mut i = 0;
    while i < t.len() {
        let q = Q_MIN + i as i32;
        let p = 5u128.pow(q.unsigned_abs());
        t[i] = if q >= 0 {
            p << p.leading_zeros()
        } else {
            // `p` is odd and above 1, so its bit length is ⌈log2 p⌉.
            div_pow2(128 - p.leading_zeros() + 127, p) + 1
        };
        i += 1;
    }
    t
};

/// `⌊2^b / d⌋` for a quotient below `2^128`, by long division one bit at a
/// time (`2^b` itself does not fit a `u128`).
const fn div_pow2(b: u32, d: u128) -> u128 {
    let (mut quo, mut rem) = (0u128, 1u128);
    let mut i = 0;
    while i < b {
        quo <<= 1;
        rem <<= 1;
        if rem >= d {
            rem -= d;
            quo |= 1;
        }
        i += 1;
    }
    quo
}

/// Parses a token of the writer's shape, `-?D.DDDDDDDDDDDDDDDDe-?X{1,3}`
/// with no `+`, no exponent padding and exactly 16 digits after the point,
/// at the start of `b`. The token must end at ASCII whitespace or at the
/// end of `b`. Returns the value, bit-equal to `str::parse::<f64>`, and the
/// token's length; `None` for any other shape and for exponents outside
/// `-11..=43` other than zero's.
pub(crate) fn parse_prefix(b: &[u8]) -> Option<(f64, usize)> {
    let neg = b.first() == Some(&b'-');
    let s = usize::from(neg);
    let head: &[u8; 19] = b.get(s..s + 19)?.try_into().ok()?;
    let lead = u64::from(head[0].wrapping_sub(b'0'));
    if lead > 9 || head[1] != b'.' || head[18] != b'e' {
        return None;
    }
    let w = lead * E16 + eight_digits(&head[2..10])? * 100_000_000 + eight_digits(&head[10..18])?;

    let mut i = s + 19;
    let exp_neg = b.get(i) == Some(&b'-');
    i += usize::from(exp_neg);
    let start = i;
    let mut exp = 0i32;
    while let Some(d) = b.get(i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        if i - start == 3 {
            return None;
        }
        exp = exp * 10 + i32::from(d);
        i += 1;
    }
    // One to three digits; `0` is the only exponent that starts with a zero.
    if i == start || (b[start] == b'0' && (i - start > 1 || exp_neg)) {
        return None;
    }
    if b.get(i).is_some_and(|c| !c.is_ascii_whitespace()) {
        return None;
    }

    let v = if w == 0 {
        0.0
    } else {
        eisel_lemire(w, if exp_neg { -exp } else { exp } - 16)?
    };
    Some((if neg { -v } else { v }, i))
}

/// Eight ASCII digits as their value, or `None` if any byte is not a digit.
fn eight_digits(chunk: &[u8]) -> Option<u64> {
    let v = u64::from_le_bytes(chunk.try_into().ok()?);
    let d = v.wrapping_sub(0x3030_3030_3030_3030);
    // A byte outside b'0'..=b'9' sets its top bit in `d` or in `v + 0x46…`.
    if (d | v.wrapping_add(0x4646_4646_4646_4646)) & 0x8080_8080_8080_8080 != 0 {
        return None;
    }
    // Pairs, then quads: the first byte is the most significant digit.
    let d = d.wrapping_mul(10).wrapping_add(d >> 8);
    let lanes = 0x0000_00FF_0000_00FF;
    let d = (d & lanes)
        .wrapping_mul(100 + (1_000_000 << 32))
        .wrapping_add(((d >> 16) & lanes).wrapping_mul(1 + (10_000 << 32)));
    Some(d >> 32)
}

/// `w·10^q` correctly rounded to nearest, ties to even, for `w > 0`: the
/// Eisel–Lemire algorithm as std's `dec2flt` runs it. `None` when `q` is
/// outside the table, when the truncated product leaves the rounding
/// undecided, or when the result would be subnormal or overflow.
fn eisel_lemire(w: u64, q: i32) -> Option<f64> {
    if !(Q_MIN..=Q_MAX).contains(&q) {
        return None;
    }
    let p5 = POW5_128[(q - Q_MIN) as usize];
    let lz = w.leading_zeros();
    let w = w << lz;
    // 55 bits decide the result: 52 explicit, the hidden bit, a rounding
    // bit and a possible leading zero of the product.
    let first = u128::from(w) * (p5 >> 64);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    if hi & 0x1FF == 0x1FF {
        let second_hi = ((u128::from(w) * u128::from(p5 as u64)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        hi += u64::from(second_hi > lo);
    }
    if lo == u64::MAX {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let mut mantissa = hi >> (upper + 9);
    // ⌊q·log2 10⌋ + 63, plus the normalization shifts, plus the bias.
    let mut power2 = ((q * (152_170 + 65_536)) >> 16) + 63 + upper - lz as i32 + 1023;
    if power2 <= 0 {
        return None;
    }
    // An exact tie (possible only for q in -4..=23) rounds to even.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << (upper + 9) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        power2 += 1;
    }
    if power2 >= 0x7FF {
        return None;
    }
    Some(f64::from_bits(
        (power2 as u64) << 52 | (mantissa & !(1 << 52)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The writer's token for `v`.
    fn token_of(v: f64) -> String {
        let mut buf = [0; TOKEN_MAX];
        let n = write(v, &mut buf);
        ascii(&buf[..n]).to_string()
    }

    /// Asserts the writer matches std formatting, the oracle, on `v`.
    fn check(v: f64) {
        let got = token_of(v);
        assert_eq!(got, format!("{v:.16e}"), "bits {:#018x}", v.to_bits());
        assert_eq!(Sci16(v).to_string(), got);
    }

    fn in_range(v: f64) -> bool {
        exact(v, &mut [0; TOKEN_MAX]).is_some()
    }

    #[test]
    fn random_bit_patterns_match_std() {
        let mut rng = StdRng::seed_from_u64(0x5c16);
        for _ in 0..20_000 {
            check(f64::from_bits(rng.gen::<u64>()));
        }
    }

    #[test]
    fn random_values_across_the_exact_range_match_std() {
        let mut rng = StdRng::seed_from_u64(0xe16);
        for _ in 0..20_000 {
            // Uniform mantissa, exponent spread over 2^-56 .. 2^59.
            let mantissa = rng.gen::<u64>() & ((1 << 52) - 1);
            let exp = (rng.gen::<u64>() % 116) as i32 - 56;
            let v = f64::from_bits(mantissa | 1.0f64.to_bits()) * 2f64.powi(exp);
            check(v);
            check(-v);
        }
    }

    #[test]
    fn subnormals_and_range_edges_match_std() {
        let mut rng = StdRng::seed_from_u64(0x5b);
        for _ in 0..2_000 {
            check(f64::from_bits(rng.gen::<u64>() & ((1 << 52) - 1)));
        }
        for v in [
            f64::MIN_POSITIVE,
            5e-324,
            EXACT_MIN,
            f64::from_bits(EXACT_MIN.to_bits() - 1),
            f64::from_bits(EXACT_LIMIT.to_bits() - 1),
            EXACT_LIMIT,
            f64::MAX,
        ] {
            check(v);
            check(-v);
        }
        assert!(in_range(EXACT_MIN) && !in_range(f64::from_bits(EXACT_MIN.to_bits() - 1)));
        assert!(in_range(99_999_999_999_999_984.0) && !in_range(EXACT_LIMIT));
    }

    #[test]
    fn powers_of_ten_and_their_neighbours_match_std() {
        for k in -17..=17 {
            let p: f64 = format!("1e{k}").parse().unwrap();
            for ulps in -8i64..=8 {
                let v = f64::from_bits(p.to_bits().wrapping_add_signed(ulps));
                check(v);
                check(-v);
            }
        }
    }

    #[test]
    fn nines_carry_into_the_next_exponent() {
        // The f64 nearest 1e-14 lies just below it, at 9.99…9988e-15: its
        // 17-digit rounding carries into the next decade.
        assert!(format!("{:.30e}", 1e-14).starts_with("9.99999999999999998"));
        assert!(in_range(1e-14));
        assert_eq!(Sci16(1e-14).to_string(), "1.0000000000000000e-14");
        assert_eq!(Sci16(-1e-14).to_string(), "-1.0000000000000000e-14");
        // Without a carry the nines stay.
        check(9.999_999_999_999_998);
        assert_eq!(
            Sci16(9.999_999_999_999_998).to_string(),
            "9.9999999999999982e0"
        );
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        // 2^-25 = 2.98023223876953125e-8: the 18th digit is an exact 5.
        assert_eq!(Sci16(2f64.powi(-25)).to_string(), "2.9802322387695312e-8");
        // Dyadic values m·2^e with small odd m have short exact expansions;
        // many end in a 5 just past the 17th digit.
        for m in (1u32..600).step_by(2) {
            for e in -56..57 {
                let v = f64::from(m) * 2f64.powi(e);
                check(v);
                check(-v);
            }
        }
    }

    #[test]
    fn zeros_and_non_finite_fall_back_to_std() {
        for v in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert!(!in_range(v));
            check(v);
        }
        assert_eq!(Sci16(-0.0).to_string(), "-0.0000000000000000e0");
        // std's longest tokens fill the buffer exactly.
        for v in [-f64::MIN_POSITIVE, -5e-324] {
            assert_eq!(token_of(v).len(), TOKEN_MAX);
            check(v);
        }
    }

    #[test]
    fn digit_groups_and_exponent_suffixes_match_std() {
        let mut rng = StdRng::seed_from_u64(0xd8);
        let edges = [0, 1, 9, 10, 99, 100, 9_999, 10_000, 10_001, 99_999_999];
        let repeated = (0..10).map(|d| d * 11_111_111);
        let random = (0..100_000).map(|_| rng.gen_range(0..100_000_000));
        for x in edges.into_iter().chain(repeated).chain(random) {
            assert_eq!(digits8(x), *format!("{x:08}").as_bytes(), "{x}");
        }
        for k in K_MIN..=K_MAX {
            let (suffix, len) = EXP_SUFFIX[(k - K_MIN) as usize];
            assert_eq!(suffix[..len], *format!("e{k}").as_bytes());
        }
    }

    /// Asserts `parse_prefix` either declines `tok` or takes all of it with
    /// the bits `str::parse::<f64>`, the oracle, gives. True if it took it.
    fn parses_like_std(tok: &str) -> bool {
        let Some((v, len)) = parse_prefix(tok.as_bytes()) else {
            return false;
        };
        let want: f64 = tok.parse().unwrap();
        assert_eq!(v.to_bits(), want.to_bits(), "{tok}");
        assert_eq!(len, tok.len(), "{tok}");
        true
    }

    /// The token for `digits·10^(exp−16)`, `digits` having 17 digits.
    fn token(neg: bool, digits: u64, exp: i32) -> String {
        let d = format!("{digits:017}");
        format!(
            "{}{}.{}e{exp}",
            if neg { "-" } else { "" },
            &d[..1],
            &d[1..]
        )
    }

    #[test]
    fn reader_matches_std_on_tokens_the_writer_writes() {
        let mut rng = StdRng::seed_from_u64(0x7ead);
        let mut fast = 0;
        for i in 0..40_000 {
            let v = if i % 2 == 0 {
                f64::from_bits(rng.gen::<u64>())
            } else {
                // Exponents spread over 2^-45 .. 2^150, around the window.
                let mantissa = rng.gen::<u64>() & ((1 << 52) - 1);
                let exp = (rng.gen::<u64>() % 196) as i32 - 45;
                f64::from_bits(mantissa | 1.0f64.to_bits()) * 2f64.powi(exp)
            };
            let tok = token_of(v);
            if parses_like_std(&tok) {
                fast += 1;
                assert_eq!(
                    parse_prefix(tok.as_bytes()).unwrap().0.to_bits(),
                    v.to_bits()
                );
            } else if v.is_finite() && v != 0.0 {
                let exp: i32 = tok.rsplit('e').next().unwrap().parse().unwrap();
                assert!(!(-11..=43).contains(&exp), "{tok} declined");
            }
        }
        assert!(fast > 15_000, "{fast}");
    }

    #[test]
    fn random_17_digit_decimals_match_std_across_and_beyond_the_window() {
        let mut rng = StdRng::seed_from_u64(0xd17);
        for _ in 0..40_000 {
            let digits = E16 + rng.gen::<u64>() % (E17 - E16);
            let exp = (rng.gen::<u64>() % 71) as i32 - 20;
            let tok = token(rng.gen(), digits, exp);
            assert_eq!(parses_like_std(&tok), (-11..=43).contains(&exp), "{tok}");
        }
    }

    #[test]
    fn exact_ties_and_their_neighbours_round_like_std() {
        let mut rng = StdRng::seed_from_u64(0x7e);
        for _ in 0..5_000 {
            // m·2^k with odd m just above 2^53 lies halfway between two
            // doubles; as m·5/10 for k = -1.
            let m = (1u64 << 53) + (rng.gen::<u64>() % (1 << 40)) * 2 + 1;
            for (n, exp10) in [(m * 5, -1), (m, 0), (m << 1, 0), (m << 2, 0), (m << 3, 0)] {
                let len = n.to_string().len() as u32;
                let digits = n * 10u64.pow(17 - len);
                let exp = exp10 + len as i32 - 1;
                for d in [0, 1, u64::MAX] {
                    let tok = token(rng.gen(), digits.wrapping_add(d), exp);
                    assert!(parses_like_std(&tok), "{tok}");
                }
            }
        }
    }

    #[test]
    fn neighbours_of_random_doubles_match_std() {
        let mut rng = StdRng::seed_from_u64(0xb0b);
        for _ in 0..10_000 {
            let mantissa = rng.gen::<u64>() & ((1 << 52) - 1);
            let exp = (rng.gen::<u64>() % 180) as i32 - 38;
            let v = f64::from_bits(mantissa | 1.0f64.to_bits()) * 2f64.powi(exp);
            let tok = format!("{v:.16e}");
            let (mant, exp) = tok.split_once('e').unwrap();
            let digits: u64 = mant.replace('.', "").parse().unwrap();
            let exp: i32 = exp.parse().unwrap();
            for d in -3i64..=3 {
                let n = digits.wrapping_add_signed(d);
                if (E16..E17).contains(&n) {
                    assert_eq!(
                        parses_like_std(&token(false, n, exp)),
                        (-11..=43).contains(&exp)
                    );
                }
            }
        }
    }

    #[test]
    fn window_edges_subnormals_overflow_and_zeros() {
        for (tok, fast) in [
            ("1.0000000000000000e-11", true),
            ("9.9999999999999999e-12", false),
            ("9.9999999999999999e43", true),
            ("1.0000000000000000e44", false),
            ("4.9406564584124654e-324", false),
            ("2.2250738585072014e-308", false),
            ("1.7976931348623157e308", false),
            ("1.0000000000000000e400", false),
            ("0.0000000000000000e0", true),
            ("-0.0000000000000000e0", true),
            ("0.0000000000000000e-300", true),
            ("-0.1234567890123456e2", true),
        ] {
            assert_eq!(parses_like_std(tok), fast, "{tok}");
        }
        assert_eq!(parse_prefix(b"0.0000000000000000e0"), Some((0.0, 20)));
        let (neg_zero, _) = parse_prefix(b"-0.0000000000000000e0").unwrap();
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        // The table's ends and centre, as in std's `dec2flt` table.
        assert_eq!(POW5_128[(-Q_MIN) as usize], 1 << 127);
        assert_eq!(POW5_128[(1 - Q_MIN) as usize], 0xa << 124);
        assert_eq!(
            POW5_128[(-1 - Q_MIN) as usize],
            0xcccc_cccc_cccc_cccc_cccc_cccc_cccc_cccd
        );
    }

    #[test]
    fn shapes_the_writer_never_emits_are_declined() {
        for tok in [
            "1.0000000000000000e+5",
            "1.0000000000000000e05",
            "1.0000000000000000e-05",
            "1.0000000000000000e-0",
            "1.0000000000000000e0001",
            "1.0000000000000000E0",
            "+1.0000000000000000e0",
            "1.000000000000000e0",
            "1.00000000000000000e0",
            "10.000000000000000e0",
            "1e5",
            "1.0000000000000000",
            "1.0000000000000000e",
            "1.0000000000000000e-",
            "1.00000000000000x0e0",
            "1.0000000000000000e0\u{a0}",
            "1.0000000000000000e0\x0b",
            "1.0000000000000000e0,",
            "NaN",
            "inf",
            "-inf",
            "-",
            "",
        ] {
            assert_eq!(parse_prefix(tok.as_bytes()), None, "{tok:?}");
        }
        // ASCII whitespace ends a token; what follows is not read.
        for rest in [" 2", "\t", "\r", "\x0c", "\n"] {
            let tok = format!("2.5000000000000000e-1{rest}");
            assert_eq!(parse_prefix(tok.as_bytes()), Some((0.25, 21)));
        }
    }
}
