//! Object identifiers.

use std::fmt;

/// An SNMP object identifier: a dotted sequence of arcs, ordered
/// lexicographically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid {
    arcs: Vec<u32>,
}

/// Error parsing a dotted OID string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OidParseError(pub String);

impl fmt::Display for OidParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid OID: {}", self.0)
    }
}

impl std::error::Error for OidParseError {}

impl Oid {
    /// Builds an OID from raw arcs.
    pub fn from_arcs(arcs: impl Into<Vec<u32>>) -> Oid {
        Oid { arcs: arcs.into() }
    }

    /// Parses a dotted string such as `"1.3.6.1.2.1.25.3.3.1.2"`.
    pub fn parse(s: &str) -> Result<Oid, OidParseError> {
        if s.is_empty() {
            return Err(OidParseError(s.to_owned()));
        }
        let arcs = s
            .split('.')
            .map(|part| part.parse::<u32>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| OidParseError(s.to_owned()))?;
        Ok(Oid { arcs })
    }

    /// The raw arcs.
    pub fn arcs(&self) -> &[u32] {
        &self.arcs
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, arc) in self.arcs.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

/// Well-known OIDs used by the framework.
pub mod oids {
    use super::Oid;

    /// `hrProcessorLoad.1` (HOST-RESOURCES-MIB): average CPU load
    /// percentage over the last minute of the first (only, in the paper's
    /// testbed) processor.
    pub fn hr_processor_load_1() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 2, 1, 25, 3, 3, 1, 2, 1])
    }

    /// `hrMemorySize` (KB of physical memory).
    pub fn hr_memory_size() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 2, 1, 25, 2, 2, 0])
    }

    /// `hrSystemNumUsers` — used to detect interactive logins.
    pub fn hr_system_num_users() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 2, 1, 25, 1, 5, 0])
    }

    /// `sysDescr.0`.
    pub fn sys_descr() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 2, 1, 1, 1, 0])
    }

    /// `sysUpTime.0` in TimeTicks (hundredths of a second).
    pub fn sys_uptime() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 2, 1, 1, 3, 0])
    }

    /// Private enterprise arc for framework-specific variables
    /// (free memory in KB).
    pub fn acc_free_memory() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 4, 1, 59999, 1, 1, 0])
    }

    /// Private enterprise arc: CPU percent consumed by the framework's own
    /// worker process. The inference engine subtracts this from
    /// `hrProcessorLoad` so the framework never reacts to its own work.
    pub fn acc_framework_load() -> Oid {
        Oid::from_arcs(vec![1, 3, 6, 1, 4, 1, 59999, 1, 3, 0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let o = Oid::parse("1.3.6.1.2.1").unwrap();
        assert_eq!(o.arcs(), &[1, 3, 6, 1, 2, 1]);
        assert_eq!(o.to_string(), "1.3.6.1.2.1");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Oid::parse("").is_err());
        assert!(Oid::parse("1..3").is_err());
        assert!(Oid::parse("1.x.3").is_err());
        assert!(Oid::parse("-1.3").is_err());
    }

    #[test]
    fn ordering_is_mib_walk_order() {
        let a = Oid::parse("1.3.6.1").unwrap();
        let b = Oid::parse("1.3.6.1.2").unwrap();
        let c = Oid::parse("1.3.6.2").unwrap();
        assert!(a < b); // a parent precedes its children
        assert!(b < c); // deeper subtree precedes next sibling
    }

    #[test]
    fn known_oids_are_valid() {
        assert_eq!(
            oids::hr_processor_load_1().to_string(),
            "1.3.6.1.2.1.25.3.3.1.2.1"
        );
    }
}
