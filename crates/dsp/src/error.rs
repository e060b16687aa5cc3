//! Error type for the DSP substrate.

use std::fmt;

/// Errors produced by signal-processing routines.
#[derive(Debug, Clone, PartialEq)]
pub enum DspError {
    /// A band-pass corner specification was malformed.
    InvalidBand(String),
    /// Sampling interval was non-positive or non-finite.
    InvalidSampling(f64),
    /// The input signal was too short for the requested operation.
    TooShort {
        /// Samples required.
        needed: usize,
        /// Samples provided.
        got: usize,
    },
    /// A numeric argument was out of its legal range.
    InvalidArgument(String),
    /// The input signal held `NaN` or `±inf`.
    NonFiniteSample {
        /// Index of the first non-finite sample.
        index: usize,
    },
}

impl fmt::Display for DspError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DspError::InvalidBand(msg) => write!(f, "invalid band-pass specification: {msg}"),
            DspError::InvalidSampling(dt) => write!(f, "invalid sampling interval: {dt}"),
            DspError::TooShort { needed, got } => {
                write!(f, "signal too short: need {needed} samples, got {got}")
            }
            DspError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            DspError::NonFiniteSample { index } => {
                write!(f, "non-finite sample at index {index}")
            }
        }
    }
}

impl std::error::Error for DspError {}

/// Rejects a signal holding `NaN` or `±inf`, naming the first such sample.
pub fn require_finite(samples: &[f64]) -> Result<(), DspError> {
    match samples.iter().position(|x| !x.is_finite()) {
        Some(index) => Err(DspError::NonFiniteSample { index }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(DspError::InvalidBand("x".into())
            .to_string()
            .contains("band-pass"));
        assert!(DspError::InvalidSampling(-1.0).to_string().contains("-1"));
        assert!(DspError::TooShort { needed: 4, got: 2 }
            .to_string()
            .contains("need 4"));
        assert!(DspError::InvalidArgument("k".into())
            .to_string()
            .contains("k"));
        assert!(DspError::NonFiniteSample { index: 200 }
            .to_string()
            .contains("index 200"));
    }
}
