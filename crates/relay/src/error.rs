//! Error types for `anonroute-relay`.

use std::fmt;

/// Errors from the relay network.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Onion construction or peeling failed.
    Crypto(anonroute_crypto::Error),
    /// Route sampling or model validation failed.
    Core(anonroute_core::Error),
    /// A frame violated the wire protocol.
    Protocol(String),
    /// Configuration rejected (cell too small, bad directory, …).
    Config(String),
    /// A relay worker thread panicked; carries the panic message.
    WorkerPanic(String),
    /// An operation did not finish within its deadline.
    Timeout(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Crypto(e) => write!(f, "crypto error: {e}"),
            Error::Core(e) => write!(f, "model error: {e}"),
            Error::Protocol(msg) => write!(f, "wire-protocol violation: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::WorkerPanic(msg) => write!(f, "relay worker panicked: {msg}"),
            Error::Timeout(msg) => write!(f, "timed out: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Crypto(e) => Some(e),
            Error::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<anonroute_crypto::Error> for Error {
    fn from(e: anonroute_crypto::Error) -> Self {
        Error::Crypto(e)
    }
}

impl From<anonroute_core::Error> for Error {
    fn from(e: anonroute_core::Error) -> Self {
        Error::Core(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Renders a `JoinHandle::join` panic payload as a message.
pub(crate) fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(Error::Protocol("bad tag".into())
            .to_string()
            .contains("bad tag"));
        assert!(Error::WorkerPanic("boom".into())
            .to_string()
            .contains("boom"));
        assert!(Error::Timeout("join".into()).to_string().contains("join"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn panic_payloads_render() {
        assert_eq!(panic_text(Box::new("static")), "static");
        assert_eq!(panic_text(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_text(Box::new(42u8)), "non-string panic payload");
    }
}
