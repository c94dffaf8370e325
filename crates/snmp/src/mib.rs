//! The agent-side management information base.

use std::collections::BTreeMap;
use std::fmt;

use crate::oid::Oid;
use crate::pdu::SnmpValue;

type Getter = Box<dyn Fn() -> SnmpValue + Send + Sync>;

/// The read-only variables an agent answers GETs from, keyed by [`Oid`].
#[derive(Default)]
pub struct Mib {
    vars: BTreeMap<Oid, Getter>,
}

impl fmt::Debug for Mib {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mib")
            .field("vars", &self.vars.len())
            .finish()
    }
}

impl Mib {
    /// An empty MIB.
    pub fn new() -> Mib {
        Mib::default()
    }

    /// Registers a constant value.
    pub fn register_const(&mut self, oid: Oid, value: SnmpValue) {
        self.register(oid, move || value.clone());
    }

    /// Registers a dynamic read-only variable.
    pub fn register(&mut self, oid: Oid, getter: impl Fn() -> SnmpValue + Send + Sync + 'static) {
        self.vars.insert(oid, Box::new(getter));
    }

    /// Registers a dynamic gauge (convenience for CPU-load style variables).
    pub fn register_gauge(&mut self, oid: Oid, getter: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register(oid, move || SnmpValue::Gauge(getter()));
    }

    /// Reads a variable.
    pub fn get(&self, oid: &Oid) -> Option<SnmpValue> {
        self.vars.get(oid).map(|getter| getter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn get_const_and_dynamic() {
        let mut mib = Mib::new();
        mib.register_const(Oid::parse("1.1").unwrap(), SnmpValue::Int(5));
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        mib.register(Oid::parse("1.2").unwrap(), move || {
            SnmpValue::Counter(c2.fetch_add(1, Ordering::Relaxed))
        });
        assert_eq!(
            mib.get(&Oid::parse("1.1").unwrap()),
            Some(SnmpValue::Int(5))
        );
        assert_eq!(
            mib.get(&Oid::parse("1.2").unwrap()),
            Some(SnmpValue::Counter(0))
        );
        assert_eq!(
            mib.get(&Oid::parse("1.2").unwrap()),
            Some(SnmpValue::Counter(1))
        );
        assert_eq!(mib.get(&Oid::parse("9.9").unwrap()), None);
    }
}
