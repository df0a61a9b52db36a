//! The common error type of the workspace.

use std::fmt;

/// A convenient `Result` alias using [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors shared across the `blockconc` crates.
///
/// Substrate crates (`blockconc-utxo`, `blockconc-account`, …) return this type from
/// their validation and execution entry points so that cross-crate pipelines can use
/// `?` without conversion boilerplate.
///
/// # Examples
///
/// ```
/// use blockconc_types::Error;
///
/// let err = Error::validation("missing input TXO");
/// assert_eq!(err.to_string(), "validation failed: missing input TXO");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A block or transaction failed structural or semantic validation.
    Validation(String),
    /// A transaction referenced state that does not exist (unknown TXO, account, …).
    MissingState(String),
    /// A balance or TXO value was insufficient.
    InsufficientFunds(String),
    /// Contract execution ran out of gas.
    OutOfGas(String),
    /// An execution engine detected an unrecoverable scheduling or concurrency error.
    Execution(String),
    /// A simulator or analysis was configured inconsistently.
    Config(String),
}

impl Error {
    /// Creates a [`Error::Validation`] error.
    pub fn validation(msg: impl Into<String>) -> Self {
        Error::Validation(msg.into())
    }

    /// Creates a [`Error::MissingState`] error.
    pub fn missing_state(msg: impl Into<String>) -> Self {
        Error::MissingState(msg.into())
    }

    /// Creates a [`Error::InsufficientFunds`] error.
    pub fn insufficient_funds(msg: impl Into<String>) -> Self {
        Error::InsufficientFunds(msg.into())
    }

    /// Creates a [`Error::OutOfGas`] error.
    pub fn out_of_gas(msg: impl Into<String>) -> Self {
        Error::OutOfGas(msg.into())
    }

    /// Creates a [`Error::Execution`] error.
    pub fn execution(msg: impl Into<String>) -> Self {
        Error::Execution(msg.into())
    }

    /// Creates a [`Error::Config`] error.
    pub fn config(msg: impl Into<String>) -> Self {
        Error::Config(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Validation(msg) => write!(f, "validation failed: {msg}"),
            Error::MissingState(msg) => write!(f, "missing state: {msg}"),
            Error::InsufficientFunds(msg) => write!(f, "insufficient funds: {msg}"),
            Error::OutOfGas(msg) => write!(f, "out of gas: {msg}"),
            Error::Execution(msg) => write!(f, "execution error: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        assert_eq!(
            Error::missing_state("txo abc").to_string(),
            "missing state: txo abc"
        );
        assert_eq!(
            Error::out_of_gas("limit 100").to_string(),
            "out of gas: limit 100"
        );
        assert_eq!(
            Error::config("bad buckets").to_string(),
            "configuration error: bad buckets"
        );
    }

    #[test]
    fn error_is_send_sync_and_static() {
        fn assert_traits<T: Send + Sync + 'static + std::error::Error>() {}
        assert_traits::<Error>();
    }

    #[test]
    fn equality_on_variant_and_message() {
        assert_eq!(Error::validation("x"), Error::validation("x"));
        assert_ne!(Error::validation("x"), Error::validation("y"));
        assert_ne!(Error::validation("x"), Error::execution("x"));
    }
}
