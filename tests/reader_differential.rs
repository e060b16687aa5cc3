//! The block reader and the record skip against line-by-line references.
//!
//! `Scanner::read_block` converts the lines `write_block` writes inside the
//! stream buffer, with an exact token path of its own, and
//! `Scanner::skip_to_magic` passes over lines there too. Both must behave
//! exactly like the loops they replaced — split each line on ASCII
//! whitespace and `str::parse::<f64>` every token; peek one line at a time
//! until a magic line — on any input: the same values bit for bit, the same
//! errors at the same lines, and the same `line_number()` afterwards.

use arp_dsp::fir::BandPass;
use arp_dsp::peaks::PeakValues;
use arp_dsp::respspec::ResponseSpectrum;
use arp_dsp::spectrum::FourierSpectrum;
use arp_formats::numio::{write_block, write_kv, write_magic, Scanner};
use arp_formats::{
    Component, FFile, Filter, FormatError, MotionTriple, RFile, Record, RecordHeader, RecordReader,
    V1ComponentFile, V1StationFile, V2File,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};

/// The block reader as a line loop over the public cursor.
fn reference_read_block<B: BufRead>(
    sc: &mut Scanner<B>,
    name: &str,
) -> Result<Vec<f64>, FormatError> {
    let mismatch = |expected, found| FormatError::CountMismatch {
        block: name.to_string(),
        expected,
        found,
    };
    let ln = sc.line_number();
    let line = sc.next_line()?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some("BEGIN") {
        let msg = format!("expected `BEGIN {name} <count>`, got {line:?}");
        return Err(FormatError::syntax(ln, msg));
    }
    let got = parts
        .next()
        .ok_or_else(|| FormatError::syntax(ln, "BEGIN missing block name"))?;
    if got != name {
        return Err(FormatError::syntax(
            ln,
            format!("expected block {name:?}, got {got:?}"),
        ));
    }
    let count: usize = parts
        .next()
        .ok_or_else(|| FormatError::syntax(ln, "BEGIN missing count"))?
        .parse()
        .map_err(|e| FormatError::syntax(ln, format!("bad count: {e}")))?;
    let mut values = Vec::new();
    loop {
        let ln = sc.line_number();
        let line = sc.next_line()?;
        if let Some(rest) = line.trim_ascii().strip_prefix("END") {
            let end_name = rest.trim();
            if !end_name.is_empty() && end_name != name {
                let msg = format!("END {end_name:?} does not match BEGIN {name:?}");
                return Err(FormatError::syntax(ln, msg));
            }
            break;
        }
        for tok in line.split_ascii_whitespace() {
            let v: f64 = tok
                .parse()
                .map_err(|e| FormatError::syntax(ln, format!("bad value {tok:?}: {e}")))?;
            values.push(v);
        }
        if values.len() > count {
            return Err(mismatch(count, values.len()));
        }
    }
    if values.len() != count {
        return Err(mismatch(count, values.len()));
    }
    Ok(values)
}

/// The record skip as a peek loop over the public cursor.
fn reference_skip_to_magic<B: BufRead>(sc: &mut Scanner<B>) -> Result<(), FormatError> {
    while let Some(line) = sc.peek()? {
        if line
            .split_whitespace()
            .next()
            .is_some_and(|t| t.starts_with("ARP-"))
        {
            break;
        }
        sc.next_line()?;
    }
    Ok(())
}

/// Walks a stream with the scanner's calls, or with the references, and
/// logs every result and the line number after it. Blocks are read, every
/// third other step skips to the next magic line, the rest take one line.
fn transcript<B: BufRead>(mut sc: Scanner<B>, reference: bool) -> Vec<String> {
    let mut log = Vec::new();
    for step in 0..400 {
        let line = match sc.peek() {
            Ok(Some(line)) => line.to_string(),
            Ok(None) => break,
            Err(e) => {
                log.push(format!("peek: {e:?}"));
                continue;
            }
        };
        let mut words = line.split_whitespace();
        let entry = if words.next() == Some("BEGIN") {
            let name = words.next().unwrap_or("");
            let read = match reference {
                true => reference_read_block(&mut sc, name),
                false => sc.read_block(name),
            };
            format!(
                "{:?}",
                read.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            )
        } else if step % 3 == 0 {
            let skip = match reference {
                true => reference_skip_to_magic(&mut sc),
                false => sc.skip_to_magic(),
            };
            format!("skip {skip:?}")
        } else {
            format!("{:?}", sc.next_line())
        };
        log.push(format!("{entry} @ {}", sc.line_number()));
    }
    log
}

/// A value from anywhere in `f64`, or one from the range pipeline data
/// lives in.
fn value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => f64::from_bits(rng.gen()),
        1 => 0.0,
        _ => (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-12..5)),
    }
}

/// A stream of one to three records of one to three blocks each.
fn records(rng: &mut StdRng) -> String {
    let mut text = String::new();
    for r in 0..rng.gen_range(1..4) {
        write_magic(&mut text, ["ARP-V1C", "ARP-V2", "ARP-F"][r]);
        write_kv(&mut text, "STATION", format!("S{r}"));
        for name in ["ACC", "VEL", "DISP"].iter().take(rng.gen_range(1..4)) {
            let values: Vec<f64> = (0..rng.gen_range(0..20)).map(|_| value(rng)).collect();
            write_block(&mut text, name, &values);
        }
    }
    text
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Index of the start of a random line of `bytes`.
fn line_start(rng: &mut StdRng, bytes: &[u8]) -> usize {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    pick(rng, &starts)
}

/// Applies one random mutation.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let at = rng.gen_range(0..bytes.len().max(1)).min(bytes.len());
    match rng.gen_range(0..10) {
        0 => {
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
        1 => bytes.truncate(at),
        2 => {
            let lf = std::mem::take(bytes);
            for b in lf {
                if b == b'\n' {
                    bytes.push(b'\r');
                }
                bytes.push(b);
            }
        }
        3 => {
            if let Some(b) = bytes
                .get_mut(at)
                .filter(|b| **b == b' ' || b.is_ascii_digit())
            {
                *b = pick(rng, &[b'\t', 0x0c, 0x0b, b'\r', b' ']);
            }
        }
        4 => {
            let i = line_start(rng, bytes);
            let blank = pick(rng, &["\n", "  \n", "\r\n", "\t\n", "\u{3000}\n"]);
            bytes.splice(i..i, blank.bytes());
        }
        5 => {
            let bad: &[u8] = pick(rng, &[&b"\xff"[..], b"\xc3", b"\x80\x80", b"\xe2\x82"]);
            bytes.splice(at..at, bad.iter().copied());
        }
        6 => {
            let i = line_start(rng, bytes);
            let magic = pick(
                rng,
                &["ARP-X 1.0\n", "  ARP-V2\n", "\u{3000}ARP-F\n", "xARP-\n"],
            );
            bytes.splice(i..i, magic.bytes());
        }
        7 => {
            let odd = pick(rng, &["\u{a0}", "é", "+", "e", "-", "NaN", "0"]);
            bytes.splice(at..at, odd.bytes());
        }
        8 => {
            if let Some(b) = bytes.get_mut(at).filter(|b| b.is_ascii_digit()) {
                *b = b'0' + rng.gen_range(0..10u8);
            }
        }
        _ => {
            // A line longer than small buffers.
            let i = line_start(rng, bytes);
            let long = "1.0000000000000000e0 ".repeat(rng.gen_range(1..40)) + "\n";
            bytes.splice(i..i, long.bytes());
        }
    }
}

/// Asserts the scanner and the references give the same transcript of
/// `bytes` through a stream buffer of each capacity in `caps`.
fn assert_same_transcripts(bytes: &[u8], caps: impl IntoIterator<Item = usize>) {
    for cap in caps {
        let new = transcript(Scanner::new(BufReader::with_capacity(cap, bytes)), false);
        let old = transcript(Scanner::new(BufReader::with_capacity(cap, bytes)), true);
        assert_eq!(
            new,
            old,
            "capacity {cap}, input {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}

#[test]
fn read_block_and_skip_to_magic_match_line_by_line_references_on_mutated_input() {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    let mut compared = 0;
    for case in 0..3_000 {
        let mut bytes = records(&mut rng).into_bytes();
        for _ in 0..rng.gen_range(0..4) {
            mutate(&mut rng, &mut bytes);
        }
        let cap = [1, 2, 3, 7, 16, 61, 64, 4096][case % 8];
        let new = transcript(
            Scanner::new(BufReader::with_capacity(cap, &bytes[..])),
            false,
        );
        let old = transcript(
            Scanner::new(BufReader::with_capacity(cap, &bytes[..])),
            true,
        );
        assert_eq!(
            new,
            old,
            "case {case}, capacity {cap}, input {:?}",
            String::from_utf8_lossy(&bytes)
        );
        compared += new.len();
    }
    assert!(compared > 20_000, "{compared}");
}

#[test]
fn every_written_value_reads_back_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xb175);
    let values: Vec<f64> = (0..60_000)
        .map(|_| value(&mut rng))
        .filter(|v| !v.is_nan())
        .collect();
    let mut text = String::new();
    write_block(&mut text, "X", &values);
    let back = Scanner::from_text(&text).read_block("X").unwrap();
    assert_eq!(back.len(), values.len());
    for (a, b) in back.iter().zip(&values) {
        assert_eq!(a.to_bits(), b.to_bits(), "{b:e}");
    }
}

#[test]
fn block_lines_read_inside_the_stream_buffer_match_the_line_reader() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    // 200 values, some written by std (zeros, NaN, huge or tiny values):
    // 34 lines and over 4 KiB, so every capacity below splits the body.
    let values: Vec<f64> = (0..200).map(|_| value(&mut rng)).collect();
    let mut text = String::new();
    write_magic(&mut text, "ARP-X");
    write_block(&mut text, "ACC", &values);
    write_kv(&mut text, "K", "v");
    assert!(text.len() > 4096, "{}", text.len());
    assert_same_transcripts(text.as_bytes(), (1..=4096).chain([64 * 1024]));

    // Lines the in-buffer path leaves to the line reader, each at a few
    // places in the body.
    let begin = text.find("BEGIN").unwrap();
    let body = begin + text[begin..].find('\n').unwrap() + 1;
    let end = text.find("END ACC").unwrap();
    let line_starts: Vec<usize> = std::iter::once(body)
        .chain(
            text[body..end]
                .match_indices('\n')
                .map(|(i, _)| body + i + 1),
        )
        .collect();
    let spaces: Vec<usize> = text[body..end]
        .match_indices(' ')
        .map(|(i, _)| body + i)
        .collect();
    let mut variants: Vec<Vec<u8>> = vec![
        text.replace('\n', "\r\n").into_bytes(),
        text.replace("END ACC", "END").into_bytes(),
        text.replace("END ACC", "END VEL").into_bytes(),
        text.replace("END ACC", "  END ACC").into_bytes(),
        // One value too many, on its own line and at the end of the last.
        text.replace("END ACC", "1.0000000000000000e0\nEND ACC")
            .into_bytes(),
        text.replace("\nEND ACC", " -2.5000000000000000e-1\nEND ACC")
            .into_bytes(),
        // One value too few.
        {
            let last = text[..end - 1].rfind([' ', '\n']).unwrap();
            format!("{}{}", &text[..last], &text[end - 1..]).into_bytes()
        },
    ];
    for _ in 0..6 {
        let at = line_starts[rng.gen_range(0..line_starts.len())];
        for insert in ["\n", "  \t \n", "\r\n", "\u{3000}\n", "\u{3000}1.0\n", " "] {
            let mut v = text.clone().into_bytes();
            v.splice(at..at, insert.bytes());
            variants.push(v);
        }
        let sp = spaces[rng.gen_range(0..spaces.len())];
        for sep in [&b"\t"[..], b"\x0c", b"\x0b", b"  ", b"\xff", b" \xff "] {
            let mut v = text.clone().into_bytes();
            v.splice(sp..sp + 1, sep.iter().copied());
            variants.push(v);
        }
    }
    // Around a token's and a line's length, and past the whole text.
    let caps = [
        1,
        2,
        3,
        7,
        20,
        21,
        22,
        64,
        127,
        128,
        129,
        1000,
        4096,
        64 * 1024,
    ];
    for v in &variants {
        assert_same_transcripts(v, caps);
    }
}

/// One record of each of the five kinds, their bodies holding `value`s of
/// the size pipeline data has.
fn one_of_each(rng: &mut StdRng) -> Vec<Record> {
    let header = RecordHeader::new("SSLB", "EV1", "2019-07-31T03:04:05Z", 0.01).unwrap();
    let mut series = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| (rng.gen::<f64>() - 0.5) * 10f64.powi(rng.gen_range(-12..5)))
            .collect()
    };
    let data = MotionTriple::from_acceleration(series(40), header.dt).unwrap();
    let periods: Vec<f64> = (0..25).map(|i| 0.04 * 1.2f64.powi(i)).collect();
    let spectra = (1..=2)
        .map(|k| ResponseSpectrum {
            periods: periods.clone(),
            damping: 0.02 * k as f64,
            sd: series(periods.len()),
            sv: series(periods.len()),
            sa: series(periods.len()),
        })
        .collect();
    vec![
        Record::V1Station(V1StationFile {
            header: header.clone(),
            components: Component::ALL.iter().map(|&c| (c, data.clone())).collect(),
        }),
        Record::V1Component(V1ComponentFile {
            header: header.clone(),
            component: Component::Vertical,
            data: data.clone(),
        }),
        Record::V2(V2File {
            header: header.clone(),
            component: Component::Longitudinal,
            band: BandPass::DEFAULT,
            peaks: PeakValues {
                pga: 61.5,
                pga_time: 3.2,
                pgv: 4.5,
                pgv_time: 3.9,
                pgd: 0.75,
                pgd_time: 5.1,
            },
            data,
        }),
        Record::Fourier(FFile {
            station: "SSLB".into(),
            event_id: "EV1".into(),
            component: Component::Transversal,
            dt: 0.01,
            spectrum: FourierSpectrum {
                frequency_hz: (0..33).map(|k| k as f64 * 1.5625).collect(),
                acceleration: series(33),
                velocity: series(33),
                displacement: series(33),
            },
        }),
        Record::Response(RFile {
            station: "SSLB".into(),
            event_id: "EV1".into(),
            component: Component::Vertical,
            spectra,
        }),
    ]
}

/// Every result a `RecordReader` with `filters` yields from `bytes` through
/// a stream buffer of `cap` bytes, up to the first error (which fuses it).
fn read_records_at(bytes: &[u8], cap: usize, filters: &[Filter]) -> Vec<String> {
    RecordReader::new(BufReader::with_capacity(cap, bytes))
        .with_filters(filters.to_vec())
        .map(|r| format!("{r:?}"))
        .collect()
}

#[test]
fn truncated_and_flipped_records_of_every_kind_read_like_the_line_reader() {
    // At capacity 1 no line ends inside the stream buffer, so every block
    // line goes through the line reader: the reference result.
    let mut rng = StdRng::seed_from_u64(0x7c0d);
    let records = one_of_each(&mut rng);
    let next = records[1].to_text();
    let filter_sets = [vec![], vec![Filter::Station("NONE".into())]];
    let (mut errors, mut records_read) = (0, 0);
    for record in &records {
        let text = record.to_text().into_bytes();
        for case in 0..120 {
            let mut bytes = text.clone();
            let at = rng.gen_range(0..bytes.len());
            if case % 2 == 0 {
                bytes.truncate(at);
            } else {
                bytes[at] ^= rng.gen_range(1..256u32) as u8;
            }
            // A whole record follows, for the skip to find.
            bytes.extend_from_slice(next.as_bytes());
            for filters in &filter_sets {
                let want = read_records_at(&bytes, 1, filters);
                for cap in [2, 7, 64, 151, 4096, 64 * 1024] {
                    assert_eq!(
                        read_records_at(&bytes, cap, filters),
                        want,
                        "{:?} case {case}, capacity {cap}, input {:?}",
                        record.kind(),
                        String::from_utf8_lossy(&bytes)
                    );
                }
                errors += usize::from(want.last().is_some_and(|r| r.starts_with("Err")));
                records_read += want.iter().filter(|r| r.starts_with("Ok")).count();
            }
        }
    }
    assert!(errors > 400 && records_read > 10, "{errors} {records_read}");
}
