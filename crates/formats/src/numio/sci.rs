//! Exact writer for the numeric-block token `{:.16e}`.
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
//! whose shifted-out bits decide the rounding. Everything else (zero,
//! subnormals and other values below `2^-53`, values from `1e17` up, NaN
//! and ±inf) takes std formatting, which is also the oracle the tests
//! compare against.

use std::fmt::{self, Write as _};

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

/// `"00" "01" ... "99"`: two digits per table lookup.
static DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Smallest magnitude the exact path writes: `2^-53`, where `q` reaches 32.
const EXACT_MIN: f64 = 1.0 / (1u64 << 53) as f64;
/// Magnitudes from here up would need `q < 0` (a division by `5^-q`).
const EXACT_LIMIT: f64 = 1e17;
/// `10^16` and `10^17`: the digit integer lies in `[10^16, 10^17)`.
const E16: u64 = 10_000_000_000_000_000;
const E17: u64 = 100_000_000_000_000_000;
/// Longest token: sign, 17 digits, `.`, `e`, `-`, two exponent digits.
const MAX_LEN: usize = 23;

/// Appends `v` exactly as `write!(out, "{v:.16e}")` would.
pub(crate) fn push(out: &mut String, v: f64) {
    let mut buf = [0u8; MAX_LEN];
    match exact(v, &mut buf) {
        Some(n) => out.push_str(ascii(&buf[..n])),
        None => {
            let _ = write!(out, "{v:.16e}");
        }
    }
}

/// Displays an `f64` as the numeric-block token, for header fields that
/// carry one (`DT`, `AXIS-UNIFORM`). Formatting flags are ignored.
#[derive(Clone, Copy)]
pub(crate) struct Sci16(pub f64);

impl fmt::Display for Sci16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; MAX_LEN];
        match exact(self.0, &mut buf) {
            Some(n) => f.write_str(ascii(&buf[..n])),
            None => write!(f, "{:.16e}", self.0),
        }
    }
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("the writer emits only ASCII digits, `-`, `.` and `e`")
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
fn exact(v: f64, buf: &mut [u8; MAX_LEN]) -> Option<usize> {
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

    let mut n = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        n = 1;
    }
    let lead = d / E16;
    let rest = d - lead * E16;
    buf[n] = b'0' + lead as u8;
    buf[n + 1] = b'.';
    write8(&mut buf[n + 2..n + 10], (rest / 100_000_000) as u32);
    write8(&mut buf[n + 10..n + 18], (rest % 100_000_000) as u32);
    buf[n + 18] = b'e';
    n += 19;
    if k < 0 {
        buf[n] = b'-';
        n += 1;
    }
    let k = k.unsigned_abs() as usize;
    if k >= 10 {
        buf[n..n + 2].copy_from_slice(&DIGIT_PAIRS[k * 2..k * 2 + 2]);
        n += 2;
    } else {
        buf[n] = b'0' + k as u8;
        n += 1;
    }
    Some(n)
}

/// Writes `x < 10^8` as exactly eight digits.
fn write8(out: &mut [u8], x: u32) {
    let (hi, lo) = (x / 10_000, x % 10_000);
    for (i, pair) in [hi / 100, hi % 100, lo / 100, lo % 100]
        .into_iter()
        .enumerate()
    {
        let p = pair as usize * 2;
        out[i * 2..i * 2 + 2].copy_from_slice(&DIGIT_PAIRS[p..p + 2]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Asserts the writer matches std formatting, the oracle, on `v`.
    fn check(v: f64) {
        let mut got = String::new();
        push(&mut got, v);
        assert_eq!(got, format!("{v:.16e}"), "bits {:#018x}", v.to_bits());
        assert_eq!(Sci16(v).to_string(), got);
    }

    fn in_range(v: f64) -> bool {
        exact(v, &mut [0; MAX_LEN]).is_some()
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
    }
}
