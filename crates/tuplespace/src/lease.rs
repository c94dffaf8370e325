//! Entry leases.
//!
//! Every entry written into a space is governed by a lease, after which the
//! space may reclaim it — the Jini resource-management discipline. The
//! framework's task and result entries use [`Lease::forever`]; a short
//! lease lets an entry lapse unless its writer renews it
//! ([`crate::Space::renew_lease`]).

use std::time::{Duration, Instant};

/// How long an entry may live in the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lease {
    /// The entry never expires (until taken or the space is dropped).
    #[default]
    Forever,
    /// The entry expires after this duration.
    Duration(Duration),
}

impl Lease {
    /// A lease that never expires.
    pub fn forever() -> Lease {
        Lease::Forever
    }

    /// A lease for the given duration.
    pub fn for_duration(d: Duration) -> Lease {
        Lease::Duration(d)
    }

    /// A lease for the given number of milliseconds.
    pub fn for_millis(ms: u64) -> Lease {
        Lease::Duration(Duration::from_millis(ms))
    }

    /// Absolute expiry deadline starting from `now`, or `None` for forever.
    pub fn deadline_from(&self, now: Instant) -> Option<Instant> {
        match self {
            Lease::Forever => None,
            Lease::Duration(d) => Some(now + *d),
        }
    }

    /// Like [`Lease::deadline_from`] with the current instant, but skips
    /// reading the clock entirely for `Forever` leases (the hot write path).
    pub fn deadline(&self) -> Option<Instant> {
        match self {
            Lease::Forever => None,
            Lease::Duration(d) => Some(Instant::now() + *d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forever_has_no_deadline() {
        assert_eq!(Lease::forever().deadline_from(Instant::now()), None);
    }

    #[test]
    fn duration_deadline_is_offset() {
        let now = Instant::now();
        let d = Lease::for_millis(250).deadline_from(now).unwrap();
        assert_eq!(d - now, Duration::from_millis(250));
    }

    #[test]
    fn default_is_forever() {
        assert_eq!(Lease::default(), Lease::Forever);
    }
}
