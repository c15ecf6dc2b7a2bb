//! The facade's unified error type.
//!
//! Callers of [`crate::Session`] used to juggle two error enums —
//! `rbat::BatError` from storage/operators and `rmal::MalError` from the
//! abstract machine — depending on which layer a request bottomed out in.
//! The facade folds both (plus its own request-level failures) into one
//! [`Error`], with `From` impls so the internal layers keep their own
//! types and `?` does the lifting.

use std::fmt;

use rbat::BatError;
use rmal::MalError;

/// Any error a [`crate::Database`] / [`crate::Session`] request can
/// produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Storage / operator error from the BAT engine.
    Bat(BatError),
    /// Program construction, optimisation or interpretation error from
    /// the abstract machine.
    Mal(MalError),
    /// A query referenced a template name the database has not prepared.
    UnknownTemplate(String),
    /// The recycler configuration handed to the builder was rejected at
    /// build time (e.g. inverted water marks, a collector enabled without
    /// any resource limit). The message says which constraint failed.
    Config(String),
    /// The query's deadline expired before a result was produced
    /// ([`crate::Session::query_with_deadline`]). The query may have
    /// partially run; no partial result is returned and nothing past the
    /// deadline was admitted to the recycle pool.
    Deadline,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Bat(e) => write!(f, "{e}"),
            Error::Mal(e) => write!(f, "{e}"),
            Error::UnknownTemplate(name) => write!(f, "unknown template: {name}"),
            Error::Config(msg) => write!(f, "invalid recycler configuration: {msg}"),
            Error::Deadline => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Bat(e) => Some(e),
            Error::Mal(e) => Some(e),
            Error::UnknownTemplate(_) | Error::Config(_) | Error::Deadline => None,
        }
    }
}

impl From<BatError> for Error {
    fn from(e: BatError) -> Error {
        Error::Bat(e)
    }
}

impl From<MalError> for Error {
    /// A `MalError` that merely wraps a storage error unwraps to
    /// [`Error::Bat`], so matching on the storage failure works the same
    /// whichever layer surfaced it.
    fn from(e: MalError) -> Error {
        match e {
            MalError::Bat(b) => Error::Bat(b),
            other => Error::Mal(other),
        }
    }
}

/// Result alias for facade requests.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bat_errors_unify_through_both_layers() {
        let direct: Error = BatError::not_found("table", "t").into();
        let via_mal: Error = MalError::Bat(BatError::not_found("table", "t")).into();
        assert_eq!(direct, via_mal, "one error type, whatever the layer");
        assert!(direct.to_string().contains("table not found"));
    }

    #[test]
    fn config_errors_carry_the_violated_constraint() {
        let e = Error::Config("low_water_ratio (0.9) must be < high_water_ratio (0.8)".into());
        assert!(e.to_string().starts_with("invalid recycler configuration:"));
        assert!(e.to_string().contains("low_water_ratio"));
        use std::error::Error as _;
        assert!(e.source().is_none());
    }

    #[test]
    fn robustness_errors_display_their_taxonomy() {
        assert_eq!(Error::Deadline.to_string(), "query deadline exceeded");
        use std::error::Error as _;
        assert!(Error::Deadline.source().is_none());
    }

    #[test]
    fn mal_errors_keep_their_detail() {
        let e: Error = MalError::bad_args("select", "expected a BAT").into();
        assert!(matches!(e, Error::Mal(_)));
        assert!(e.to_string().contains("expected a BAT"));
    }
}
