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

/// Both outcomes of [`TupleStore::write_all_then_take_up_to`]: the batch
/// write's ids and the batch take's tuples.
pub type WriteThenTake = (SpaceResult<Vec<EntryId>>, SpaceResult<Vec<Tuple>>);

/// The operations every space client relies on.
///
/// A decorator (a store that wraps another) forwards every method it
/// does not mean to change: one that leaves a defaulted method out still
/// works, but silently gets the default's loop of plain calls instead of
/// the wrapped store's one-exchange version —
/// [`TupleStore::write_all_then_take_up_to`] is the costly one to forget.
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

    /// `write_all(tuples)`, then `take_up_to(template, max, timeout)` —
    /// a worker's refill point: the finished batch's results out, the
    /// next batch's tasks in. [`crate::remote::RemoteSpace`] sends the two
    /// as one pipelined exchange (one round trip, one syscall each way);
    /// this default is [`write_all_then_take_up_to_in_sequence`].
    ///
    /// Both outcomes come back. A store that runs the pair as one
    /// exchange has already removed the tuples when it learns the write
    /// failed, so a failed write beside a successful take hands the
    /// caller tuples it must use or write back — never silently drops
    /// them.
    fn write_all_then_take_up_to(
        &self,
        tuples: Vec<Tuple>,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> WriteThenTake {
        write_all_then_take_up_to_in_sequence(self, tuples, template, max, timeout)
    }
}

/// The two-call form of [`TupleStore::write_all_then_take_up_to`], for
/// stores with nothing to gain from pairing them: the write, and the
/// take only if the write succeeded (nothing is taken after a failed
/// write, which reports an empty batch).
pub fn write_all_then_take_up_to_in_sequence<S: TupleStore + ?Sized>(
    store: &S,
    tuples: Vec<Tuple>,
    template: &Template,
    max: usize,
    timeout: Option<Duration>,
) -> WriteThenTake {
    let written = store.write_all(tuples);
    let taken = match written {
        Ok(_) => store.take_up_to(template, max, timeout),
        Err(_) => Ok(Vec::new()),
    };
    (written, taken)
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

    #[test]
    fn default_refill_pair_is_the_two_calls_and_takes_nothing_after_a_failed_write() {
        let space = Space::new("pair");
        let store: StoreHandle = space.clone();
        let t = Template::of_type("t");
        store.write_all((0..5).map(tuple).collect()).unwrap();
        let result = Tuple::build("r").field("id", 0i64).done();
        let (written, taken) = store.write_all_then_take_up_to(vec![result.clone()], &t, 3, None);
        assert_eq!(written.unwrap().len(), 1);
        assert_eq!(taken.unwrap().len(), 3);
        store.close();
        let (written, taken) = store.write_all_then_take_up_to(vec![result], &t, 3, None);
        assert!(written.is_err());
        assert_eq!(taken, Ok(Vec::new()), "no take is attempted");
    }
}
