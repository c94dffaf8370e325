//! Error types for space operations.

use std::fmt;

/// Result alias for space operations.
pub type SpaceResult<T> = Result<T, SpaceError>;

/// Errors returned by [`crate::Space`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The space has been closed; all blocked operations are woken with this
    /// error so workers can shut down cleanly.
    Closed,
    /// The transaction has already committed or aborted.
    TxnInactive,
    /// The referenced entry does not exist (already taken, or its lease
    /// expired).
    NoSuchEntry,
    /// A lease operation referenced an expired lease.
    LeaseExpired,
    /// A durability operation (journal, snapshot, recovery) failed at the
    /// storage layer; the message carries the underlying I/O error.
    Storage(String),
    /// A remote operation failed at the transport layer (connection reset,
    /// timeout, refused reconnect). Unlike [`SpaceError::Closed`] this does
    /// **not** mean the space shut down — the server may still be alive and
    /// a later call (which reconnects) can succeed. Callers in retry loops
    /// should treat this as transient.
    Transport(String),
    /// The remote peer answered with a frame that decodes but does not
    /// match the request (wrong response variant, bad correlation id). This
    /// indicates a protocol bug or a hostile peer, never a clean shutdown.
    Protocol(String),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::Closed => write!(f, "space is closed"),
            SpaceError::TxnInactive => write!(f, "transaction is no longer active"),
            SpaceError::NoSuchEntry => write!(f, "no such entry"),
            SpaceError::LeaseExpired => write!(f, "lease has expired"),
            SpaceError::Storage(msg) => write!(f, "storage error: {msg}"),
            SpaceError::Transport(msg) => write!(f, "transport error: {msg}"),
            SpaceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(SpaceError::Closed.to_string(), "space is closed");
        assert_eq!(
            SpaceError::TxnInactive.to_string(),
            "transaction is no longer active"
        );
        assert_eq!(SpaceError::NoSuchEntry.to_string(), "no such entry");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SpaceError::Closed, SpaceError::Closed);
        assert_ne!(SpaceError::Closed, SpaceError::NoSuchEntry);
    }
}
