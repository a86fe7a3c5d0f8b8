//! Workspace-wide error type for the QoR-prediction pipeline.
//!
//! Every fallible public entry point in `qor-core` (and the crates layered
//! on top of it) returns [`QorError`] instead of `Box<dyn Error>`, so
//! callers can match on the failure mode and the error stays `Send + Sync`
//! for the parallel executor.

use std::fmt;

/// Any failure produced by the source-to-post-route pipeline.
#[derive(Debug)]
pub enum QorError {
    /// HLS-C front-end failure (lexing, parsing, or semantic analysis).
    Parse(frontc::FrontError),
    /// HIR lowering failure.
    Lower(hir::LowerError),
    /// Simulated tool-flow evaluation failure.
    Eval(hlsim::EvalError),
    /// A kernel name that is not registered (bundled set or dataset).
    UnknownKernel(String),
    /// Filesystem failure (report/artifact I/O).
    Io(std::io::Error),
    /// Tensor/graph dimension mismatch.
    Shape(String),
    /// A persisted artifact (checkpoint) is malformed: bad magic, truncated
    /// records, or a content-checksum mismatch.
    Corrupt(String),
    /// A persisted artifact was written by a format version this build does
    /// not understand.
    UnsupportedVersion(u32),
}

impl fmt::Display for QorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QorError::Parse(e) => write!(f, "front-end: {e}"),
            QorError::Lower(e) => write!(f, "lowering: {e}"),
            QorError::Eval(e) => write!(f, "evaluation: {e}"),
            QorError::UnknownKernel(name) => write!(f, "unknown kernel {name:?}"),
            QorError::Io(e) => write!(f, "io: {e}"),
            QorError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            QorError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
            QorError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
        }
    }
}

impl std::error::Error for QorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QorError::Parse(e) => Some(e),
            QorError::Lower(e) => Some(e),
            QorError::Eval(e) => Some(e),
            QorError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<frontc::FrontError> for QorError {
    fn from(e: frontc::FrontError) -> Self {
        QorError::Parse(e)
    }
}

impl From<hir::LowerError> for QorError {
    fn from(e: hir::LowerError) -> Self {
        QorError::Lower(e)
    }
}

impl From<hlsim::EvalError> for QorError {
    fn from(e: hlsim::EvalError) -> Self {
        QorError::Eval(e)
    }
}

impl From<std::io::Error> for QorError {
    fn from(e: std::io::Error) -> Self {
        QorError::Io(e)
    }
}

impl From<tensor::ImportError> for QorError {
    fn from(e: tensor::ImportError) -> Self {
        match e {
            tensor::ImportError::ShapeMismatch { .. } => QorError::Shape(e.to_string()),
            tensor::ImportError::UnknownParam(_) => QorError::Corrupt(e.to_string()),
        }
    }
}

impl From<kernels::KernelError> for QorError {
    fn from(e: kernels::KernelError) -> Self {
        match e {
            kernels::KernelError::UnknownKernel(n) => QorError::UnknownKernel(n),
            kernels::KernelError::MissingFunction(n) => QorError::UnknownKernel(n),
            kernels::KernelError::Front(e) => QorError::Parse(e),
            kernels::KernelError::Lower(e) => QorError::Lower(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_error_maps_by_variant() {
        let e: QorError = kernels::KernelError::UnknownKernel("nope".into()).into();
        assert!(matches!(e, QorError::UnknownKernel(ref n) if n == "nope"));
        assert_eq!(e.to_string(), "unknown kernel \"nope\"");
    }

    #[test]
    fn import_error_maps_by_variant() {
        let e: QorError = tensor::ImportError::UnknownParam("w".into()).into();
        assert!(matches!(e, QorError::Corrupt(_)));
        let e: QorError = tensor::ImportError::ShapeMismatch {
            name: "w".into(),
            expected: (2, 2),
            found: (1, 1),
        }
        .into();
        assert!(matches!(e, QorError::Shape(_)));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error;
        let e = QorError::Eval(hlsim::EvalError {
            message: "bad".into(),
        });
        assert!(e.source().is_some());
        let e = QorError::Shape("3x4 vs 4x3".into());
        assert!(e.source().is_none());
    }
}
