//! The `TupleStore` abstraction: what a space looks like to its clients.
//!
//! JavaSpaces is a *network-accessible* repository; masters and workers
//! don't care whether the space lives in their process or across a
//! socket. [`TupleStore`] captures the operations the framework uses, and
//! is implemented by the in-process [`crate::Space`] and by
//! [`crate::remote::RemoteSpace`].
//!
//! Transactions are deliberately not part of the trait: they are offered
//! by the in-process space only (see `crate::txn`), mirroring the fact
//! that this reproduction's remote protocol covers the master/worker
//! fast path.

use std::sync::Arc;
use std::time::Duration;

use crate::error::SpaceResult;
use crate::lease::Lease;
use crate::space::{EntryId, Space};
use crate::template::Template;
use crate::tuple::Tuple;

/// Shared handle to any tuple store (local or remote).
pub type StoreHandle = Arc<dyn TupleStore>;

/// The operations every space client relies on.
pub trait TupleStore: Send + Sync {
    /// Stores a tuple under a lease.
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId>;

    /// Blocking non-destructive lookup; `None` on timeout.
    fn read(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>>;

    /// Blocking destructive lookup; `None` on timeout.
    fn take(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>>;

    /// Number of currently matching, visible tuples.
    fn count(&self, template: &Template) -> SpaceResult<usize>;

    /// Closes the space: blocked and future operations fail.
    fn close(&self);

    /// Has the space been closed?
    fn is_closed(&self) -> bool;

    // --- conveniences with default implementations -------------------

    /// Stores a tuple forever.
    fn write(&self, tuple: Tuple) -> SpaceResult<EntryId> {
        self.write_leased(tuple, Lease::Forever)
    }

    /// Non-blocking read.
    fn read_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.read(template, Some(Duration::ZERO))
    }

    /// Non-blocking take.
    fn take_if_exists(&self, template: &Template) -> SpaceResult<Option<Tuple>> {
        self.take(template, Some(Duration::ZERO))
    }

    /// Takes every currently matching tuple.
    fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        let mut out = Vec::new();
        while let Some(t) = self.take_if_exists(template)? {
            out.push(t);
        }
        Ok(out)
    }

    // --- batch operations --------------------------------------------
    //
    // The defaults are plain loops of singles, so every store is
    // batch-capable; `Space` overrides them with single-lock bulk
    // operations and `RemoteSpace` with batch wire frames. Errors mid-batch surface immediately: tuples written
    // before the failure stay written, exactly like the equivalent loop.

    /// Stores every tuple under one lease, returning ids in input order.
    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        let mut ids = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            ids.push(self.write_leased(tuple, lease)?);
        }
        Ok(ids)
    }

    /// Stores every tuple forever.
    fn write_all(&self, tuples: Vec<Tuple>) -> SpaceResult<Vec<EntryId>> {
        self.write_all_leased(tuples, Lease::Forever)
    }

    /// Takes up to `max` matching tuples: blocks up to `timeout` for the
    /// first match, then drains whatever else currently matches without
    /// further waiting. Returns an empty vec on timeout.
    fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        let mut out = Vec::new();
        if max == 0 {
            return Ok(out);
        }
        match self.take(template, timeout)? {
            None => return Ok(out),
            Some(first) => out.push(first),
        }
        while out.len() < max {
            match self.take_if_exists(template)? {
                Some(t) => out.push(t),
                None => break,
            }
        }
        Ok(out)
    }
}

impl TupleStore for Space {
    fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
        Space::write_leased(self, tuple, lease)
    }

    fn read(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        Space::read(self, template, timeout)
    }

    fn take(&self, template: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
        Space::take(self, template, timeout)
    }

    fn count(&self, template: &Template) -> SpaceResult<usize> {
        Ok(Space::count(self, template))
    }

    fn close(&self) {
        Space::close(self)
    }

    fn is_closed(&self) -> bool {
        Space::is_closed(self)
    }

    fn take_all(&self, template: &Template) -> SpaceResult<Vec<Tuple>> {
        // The in-process space drains each shard under a single lock
        // acquisition instead of the default take-per-call loop.
        Space::take_all(self, template)
    }

    fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
        // Contiguous id block, one lock acquisition per shard.
        Space::write_all_leased(self, tuples, lease)
    }

    fn take_up_to(
        &self,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> SpaceResult<Vec<Tuple>> {
        Space::take_up_to(self, template, max, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(id: i64) -> Tuple {
        Tuple::build("t").field("id", id).done()
    }

    #[test]
    fn space_through_the_trait() {
        let space = Space::new("store");
        let store: StoreHandle = space;
        store.write(tuple(1)).unwrap();
        store.write(tuple(2)).unwrap();
        assert_eq!(store.count(&Template::of_type("t")).unwrap(), 2);
        let got = store.take_if_exists(&Template::of_type("t")).unwrap();
        assert_eq!(got.unwrap().get_int("id"), Some(1));
        let rest = store.take_all(&Template::of_type("t")).unwrap();
        assert_eq!(rest.len(), 1);
        assert!(!store.is_closed());
        store.close();
        assert!(store.is_closed());
        assert!(store.write(tuple(3)).is_err());
    }
}
