//! Exact writer for plot coordinates, the token `{:.2}`.
//!
//! A polyline writes two coordinates per point, and a plot of a record has
//! thousands of points, so the page body is mostly this token. It is
//! written here straight from the IEEE-754 bits: for `|v| = m·2^e` the
//! digits are `round(|v|·100) = round(m·25·2^(e+2))`, one integer product
//! and a shift whose shifted-out bits decide the rounding, half-to-even —
//! the same bytes `format!("{v:.2}")` writes. Magnitudes from `1e15` up,
//! NaN and ±inf take std formatting, which is also the oracle the tests
//! compare against.

use std::fmt::Write as _;

/// Magnitudes from here up take std formatting (`|v|·100` must fit a `u64`).
const EXACT_LIMIT: f64 = 1e15;
/// Room for a sign, any `u64` integer part, `.` and two decimals.
const MAX_LEN: usize = 24;

/// Appends `v` exactly as `write!(out, "{v:.2}")` would.
pub(crate) fn push(out: &mut String, v: f64) {
    let mut buf = [0u8; MAX_LEN];
    match exact(v, &mut buf) {
        Some(n) => out.push_str(
            std::str::from_utf8(&buf[..n])
                .expect("the writer emits only ASCII digits, `-` and `.`"),
        ),
        None => {
            let _ = write!(out, "{v:.2}");
        }
    }
}

/// Writes the token into `buf` and returns its length, or `None` when `v`
/// is outside the exact range.
fn exact(v: f64, buf: &mut [u8; MAX_LEN]) -> Option<usize> {
    let a = v.abs();
    if !(0.0..EXACT_LIMIT).contains(&a) {
        return None;
    }
    let bits = a.to_bits();
    let biased = (bits >> 52) as i32;
    let frac = bits & ((1 << 52) - 1);
    let (m, e) = match biased {
        0 => (frac, -1074),
        _ => (frac | (1 << 52), biased - 1075),
    };
    let p = u128::from(m) * 25;
    let s = e + 2;
    let mut d = if s >= 0 {
        (p << s) as u64
    } else {
        // Beyond 127 bits everything shifts out and stays below half.
        let sh = s.unsigned_abs().min(127);
        let d = p >> sh;
        let rem = p & ((1u128 << sh) - 1);
        let half = 1u128 << (sh - 1);
        (d + u128::from(rem > half || (rem == half && d & 1 == 1))) as u64
    };

    let mut n = 0;
    if v.is_sign_negative() {
        buf[0] = b'-';
        n = 1;
    }
    let cents = (d % 100) as u8;
    d /= 100;
    let mut int = [0u8; 20];
    let mut i = int.len();
    loop {
        i -= 1;
        int[i] = b'0' + (d % 10) as u8;
        d /= 10;
        if d == 0 {
            break;
        }
    }
    let digits = &int[i..];
    buf[n..n + digits.len()].copy_from_slice(digits);
    n += digits.len();
    buf[n] = b'.';
    buf[n + 1] = b'0' + cents / 10;
    buf[n + 2] = b'0' + cents % 10;
    Some(n + 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts the writer matches std formatting, the oracle, on `v`.
    fn check(v: f64) {
        let mut got = String::new();
        push(&mut got, v);
        assert_eq!(got, format!("{v:.2}"), "bits {:#018x}", v.to_bits());
    }

    /// A small xorshift generator, so the test needs no dependency.
    fn bits(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn random_bit_patterns_and_subnormals_match_std() {
        let mut state = 0x2d2d_2d2d_2d2d_2d2d;
        for _ in 0..20_000 {
            let b = bits(&mut state);
            check(f64::from_bits(b));
            check(f64::from_bits(b & ((1 << 52) - 1)));
            check(-f64::from_bits(b & ((1 << 52) - 1)));
        }
    }

    #[test]
    fn page_coordinates_match_std() {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..20_000 {
            // Page coordinates span a few thousand points either way.
            let v = (bits(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 8000.0 - 4000.0;
            check(v);
        }
        for i in -20_000..20_000 {
            check(f64::from(i) * 0.001);
            check(f64::from(i) * 0.005);
        }
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        assert_eq!(format!("{:.2}", 0.125), "0.12");
        check(0.125);
        check(0.375);
        for i in -4_000..4_000 {
            // Every multiple of 1/8 is exact; odd ones are ties at 2 decimals.
            check(f64::from(i) / 8.0);
            check(f64::from(i) / 1024.0);
        }
    }

    #[test]
    fn carries_signs_and_range_edges_match_std() {
        for v in [
            0.995, 9.995, 99.995, 999.999, 0.005, 0.0051, 0.0049, -0.001, -0.005, 1e-300, 5e-324,
            0.0, -0.0,
        ] {
            check(v);
            check(-v);
        }
        let below = f64::from_bits(EXACT_LIMIT.to_bits() - 1);
        assert!(exact(below, &mut [0; MAX_LEN]).is_some());
        for v in [
            below,
            EXACT_LIMIT,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            check(v);
            check(-v);
        }
        assert!(exact(EXACT_LIMIT, &mut [0; MAX_LEN]).is_none());
    }
}
