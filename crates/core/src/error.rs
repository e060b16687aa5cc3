//! Pipeline error type.

use std::fmt;
use std::path::PathBuf;

/// Errors raised while running the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// A file-format error from `arp-formats`.
    Format(arp_formats::FormatError),
    /// A numeric error from `arp-dsp`.
    Dsp(arp_dsp::DspError),
    /// Raw I/O failure with the path involved.
    Io {
        /// Path being accessed.
        path: PathBuf,
        /// OS error.
        source: std::io::Error,
    },
    /// A required artifact was missing when a process needed it, indicating
    /// a dependency-ordering bug or a corrupted work directory.
    MissingArtifact {
        /// Process that needed the artifact.
        process: &'static str,
        /// Artifact file name.
        artifact: String,
    },
    /// A numeric error in one component record, attributed to the file the
    /// component was read from.
    Component {
        /// The component's file.
        path: PathBuf,
        /// The component.
        component: arp_formats::Component,
        /// The numeric error.
        source: arp_dsp::DspError,
    },
    /// Invalid pipeline configuration.
    Config(String),
    /// A worker panicked while executing a process; the payload message is
    /// preserved so postmortems can name the failure instead of dropping it.
    Panic(String),
    /// A batch super-DAG node failed, attributed to the event and process
    /// it belonged to (`<event label>/#<process>`).
    Node {
        /// The failed node's label.
        label: String,
        /// The underlying failure.
        source: Box<PipelineError>,
    },
}

impl PipelineError {
    /// Wraps an I/O error with its path.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        PipelineError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Format(e) => write!(f, "format error: {e}"),
            PipelineError::Dsp(e) => write!(f, "signal-processing error: {e}"),
            PipelineError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            PipelineError::MissingArtifact { process, artifact } => {
                write!(f, "process {process} requires missing artifact {artifact}")
            }
            PipelineError::Component {
                path,
                component,
                source,
            } => write!(
                f,
                "{}: {component} component: signal-processing error: {source}",
                path.display()
            ),
            PipelineError::Config(msg) => write!(f, "configuration error: {msg}"),
            PipelineError::Panic(msg) => write!(f, "panic: {msg}"),
            PipelineError::Node { label, source } => {
                write!(f, "batch node {label}: {source}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Format(e) => Some(e),
            PipelineError::Dsp(e) | PipelineError::Component { source: e, .. } => Some(e),
            PipelineError::Io { source, .. } => Some(source),
            PipelineError::Node { source, .. } => Some(&**source),
            _ => None,
        }
    }
}

impl From<arp_formats::FormatError> for PipelineError {
    fn from(e: arp_formats::FormatError) -> Self {
        PipelineError::Format(e)
    }
}

impl From<arp_dsp::DspError> for PipelineError {
    fn from(e: arp_dsp::DspError) -> Self {
        PipelineError::Dsp(e)
    }
}

/// Pipeline result alias.
pub type Result<T> = std::result::Result<T, PipelineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e: PipelineError = arp_dsp::DspError::InvalidSampling(0.0).into();
        assert!(e.to_string().contains("signal-processing"));
        assert!(e.source().is_some());

        let m = PipelineError::MissingArtifact {
            process: "p07",
            artifact: "SSLBl.v2".into(),
        };
        assert!(m.to_string().contains("p07"));
        assert!(m.source().is_none());

        let c = PipelineError::Config("bad".into());
        assert!(c.to_string().contains("bad"));

        let io = PipelineError::io("/x", std::io::Error::other("z"));
        assert!(io.to_string().contains("/x"));

        let comp = PipelineError::Component {
            path: "w/LUNAl.v1".into(),
            component: arp_formats::Component::Longitudinal,
            source: arp_dsp::DspError::NonFiniteSample { index: 3 },
        };
        assert_eq!(
            comp.to_string(),
            "w/LUNAl.v1: LONGITUDINAL component: signal-processing error: \
             non-finite sample at index 3"
        );
        assert!(comp.source().is_some());

        let node = PipelineError::Node {
            label: "ev-b/#1".into(),
            source: Box::new(PipelineError::Config("kernel exploded".into())),
        };
        assert!(node.to_string().contains("ev-b/#1"));
        assert!(node.to_string().contains("kernel exploded"));
        assert!(node.source().is_some());
    }
}
