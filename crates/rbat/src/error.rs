//! Error handling for the BAT engine.

use std::fmt;

/// Errors produced by BAT storage and operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatError {
    /// An operator was handed a column of an unexpected logical type.
    TypeMismatch {
        /// Operation that failed.
        op: &'static str,
        /// Human-readable description of what was expected/found.
        detail: String,
    },
    /// Two columns that must be positionally aligned have different lengths.
    LengthMismatch {
        /// Operation that failed.
        op: &'static str,
        /// Length of the left input.
        left: usize,
        /// Length of the right input.
        right: usize,
    },
    /// A named catalog object (table, column, index) does not exist.
    NotFound {
        /// Object kind ("table", "column", "index").
        kind: &'static str,
        /// Requested name.
        name: String,
    },
    /// An integer result does not fit its type.
    Overflow {
        /// Operation that failed.
        op: &'static str,
    },
    /// An update was rejected (schema mismatch, bad row shape, ...).
    InvalidUpdate(String),
    /// Generic invariant violation inside an operator.
    Internal(String),
}

impl fmt::Display for BatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatError::TypeMismatch { op, detail } => {
                write!(f, "type mismatch in {op}: {detail}")
            }
            BatError::LengthMismatch { op, left, right } => {
                write!(f, "length mismatch in {op}: left {left} vs right {right}")
            }
            BatError::NotFound { kind, name } => write!(f, "{kind} not found: {name}"),
            BatError::Overflow { op } => write!(f, "integer overflow in {op}"),
            BatError::InvalidUpdate(s) => write!(f, "invalid update: {s}"),
            BatError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for BatError {}

/// Convenience result alias used throughout the engine.
pub type Result<T> = std::result::Result<T, BatError>;

impl BatError {
    /// Construct a [`BatError::TypeMismatch`].
    pub fn type_mismatch(op: &'static str, detail: impl Into<String>) -> Self {
        BatError::TypeMismatch {
            op,
            detail: detail.into(),
        }
    }

    /// Construct a [`BatError::NotFound`].
    pub fn not_found(kind: &'static str, name: impl Into<String>) -> Self {
        BatError::NotFound {
            kind,
            name: name.into(),
        }
    }
}
