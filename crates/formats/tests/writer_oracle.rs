//! `write_block` against the writer it replaced.
//!
//! The block writer builds each line in a stack buffer with its own token
//! writer. The module below is a verbatim copy of the line-at-a-time
//! writer it replaced (`numio::write_block` and `numio::sci::push` with
//! their helpers), which std formatting had already been checked against.
//! The two must produce the same bytes for any values: random bit
//! patterns, ±0, subnormals, values from `1e17` up, NaN and ±inf, in
//! blocks of 0 to 20 values.

use arp_formats::numio::write_block;
use proptest::prelude::*;

mod previous {
    use std::fmt::Write as _;

    /// Values printed per line in numeric blocks.
    const VALUES_PER_LINE: usize = 6;

    /// Appends a numeric block in the standard layout: each value is the
    /// token `format!("{v:.16e}")` would write, six to a line.
    pub fn write_block(out: &mut String, name: &str, values: &[f64]) {
        let _ = writeln!(out, "BEGIN {name} {}", values.len());
        for chunk in values.chunks(VALUES_PER_LINE) {
            for (i, &v) in chunk.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                push(out, v);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "END {name}");
    }

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
    fn push(out: &mut String, v: f64) {
        let mut buf = [0u8; MAX_LEN];
        match exact(v, &mut buf) {
            Some(n) => out.push_str(ascii(&buf[..n])),
            None => {
                let _ = write!(out, "{v:.16e}");
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
}

/// A value from one of the classes the writer treats apart.
fn value() -> impl Strategy<Value = f64> {
    let bits = any::<u64>();
    prop_oneof![
        bits.prop_map(f64::from_bits),
        // Subnormals of either sign.
        any::<u64>().prop_map(|b| f64::from_bits(b & (1 << 63 | ((1 << 52) - 1)))),
        // From 1e17 up, where std formatting takes over.
        (17.0f64..308.0).prop_map(|e| 10f64.powf(e)),
        (17.0f64..308.0).prop_map(|e| -(10f64.powf(e))),
        // Around the pipeline's magnitudes.
        (-1.0f64..1.0).prop_map(|m| m * 1e-3),
        prop::sample::select(vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            5e-324,
            1e17,
            f64::MAX,
            1.0 / (1u64 << 53) as f64,
        ]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn write_block_matches_the_writer_it_replaced(
        values in prop::collection::vec(value(), 0..21),
        name in prop::sample::select(vec!["ACC", "FAS_DISP", "X"]),
    ) {
        let mut got = String::from("KEY: v\n");
        let mut want = got.clone();
        write_block(&mut got, name, &values);
        previous::write_block(&mut want, name, &values);
        prop_assert_eq!(got, want);
    }
}
