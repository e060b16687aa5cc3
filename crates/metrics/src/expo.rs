//! Prometheus text-exposition (format 0.0.4) escaping and parsing.
//!
//! [`crate::gather`] is the renderer; this module holds the escaping rules
//! it shares and [`parse_exposition`] — a strict parser for the same
//! format, used by the round-trip tests and by `arp metrics --check` (the
//! CI smoke job scrapes `/metrics` once and feeds the body through it).

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (family name plus any `_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in file order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// Value of the label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Escapes a `# HELP` text: backslash and newline, per the format spec.
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double-quote, and newline.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .skip(1)
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name
            .chars()
            .skip(1)
            .all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Label pairs plus the unparsed remainder of the line.
type LabelsAndRest<'a> = (Vec<(String, String)>, &'a str);

/// Parses `{k="v",...}` starting after the `{`; returns the pairs and the
/// rest of the line after the closing `}`.
fn parse_labels(mut rest: &str, lineno: usize) -> Result<LabelsAndRest<'_>, String> {
    let mut labels = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = rest[..eq].trim();
        if !valid_label_name(key) {
            return Err(format!("line {lineno}: invalid label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        let mut chars = rest.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("line {lineno}: label value must be quoted"));
        }
        let mut value = String::new();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    other => {
                        return Err(format!(
                            "line {lineno}: bad escape {:?} in label value",
                            other.map(|(_, c)| c)
                        ))
                    }
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key.to_string(), value));
        rest = rest[end + 1..].trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if !rest.starts_with('}') {
            return Err(format!("line {lineno}: expected ',' or '}}' after label"));
        }
    }
}

/// Parses a Prometheus 0.0.4 text exposition. Validates comment lines
/// (`# TYPE` must name one of the five metric types, `# HELP`/`# TYPE`
/// must name a valid metric), sample-line syntax, and that every value is
/// a parseable, non-NaN float. Returns the sample lines in file order.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    const TYPES: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: TYPE for invalid name {name:?}"));
                }
                if !TYPES.contains(&kind) {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: HELP for invalid name {name:?}"));
                }
            }
            // Other comments are allowed and ignored.
            continue;
        }
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if let Some(after) = rest.strip_prefix('{') {
            parse_labels(after, lineno)?
        } else {
            (Vec::new(), rest)
        };
        let mut fields = rest.split_whitespace();
        let value_str = fields
            .next()
            .ok_or_else(|| format!("line {lineno}: sample without value"))?;
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            s => s
                .parse()
                .map_err(|_| format!("line {lineno}: unparseable value {s:?}"))?,
        };
        if value.is_nan() {
            return Err(format!("line {lineno}: NaN sample value for {name:?}"));
        }
        // An optional integer timestamp may follow; anything else is junk.
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {lineno}: trailing junk {ts:?}"))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {lineno}: trailing junk after timestamp"));
        }
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_samples_with_and_without_labels() {
        let text = "# HELP x_total Things.\n# TYPE x_total counter\nx_total 4\n\
                    y_seconds{process=\"4\",quantile=\"0.5\"} 0.25\n";
        let samples = parse_exposition(text).expect("parse");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].name, "x_total");
        assert_eq!(samples[0].value, 4.0);
        assert_eq!(samples[1].label("process"), Some("4"));
        assert_eq!(samples[1].label("quantile"), Some("0.5"));
        assert_eq!(samples[1].value, 0.25);
    }

    #[test]
    fn label_escapes_round_trip() {
        let tricky = "a\\b\"c\nd";
        let line = format!("m{{k=\"{}\"}} 1\n", escape_label_value(tricky));
        let samples = parse_exposition(&line).expect("parse");
        assert_eq!(samples[0].label("k"), Some(tricky));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_exposition("1bad_name 3\n").is_err());
        assert!(parse_exposition("m{k=unquoted} 3\n").is_err());
        assert!(parse_exposition("m{k=\"v\" 3\n").is_err());
        assert!(parse_exposition("m notanumber\n").is_err());
        assert!(parse_exposition("m 1 2 3\n").is_err());
        assert!(parse_exposition("m NaN\n").is_err());
        assert!(parse_exposition("# TYPE m frobnicator\n").is_err());
    }

    #[test]
    fn accepts_infinities_and_timestamps() {
        let samples = parse_exposition("m +Inf 1700000000\n").expect("parse");
        assert_eq!(samples[0].value, f64::INFINITY);
    }
}
