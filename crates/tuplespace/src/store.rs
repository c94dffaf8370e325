//! The `TupleStore` abstraction: what a space looks like to its clients.
//!
//! JavaSpaces is a *network-accessible* repository; masters and workers
//! don't care whether the space lives in their process or across a
//! socket. [`TupleStore`] captures the operations the framework uses, and
//! is implemented by the in-process [`crate::Space`] and by
//! [`crate::remote::RemoteSpace`].

use std::sync::Arc;
use std::time::Duration;

use crate::error::{SpaceError, SpaceResult};
use crate::lease::Lease;
use crate::space::{EntryId, Space, Txn};
use crate::template::Template;
use crate::tuple::Tuple;

/// Shared handle to any tuple store (local or remote).
pub type StoreHandle = Arc<dyn TupleStore>;

/// A worker's batch: tuples taken under one transaction, committed
/// together with the tuples the batch hands back — its results, and any
/// task it did not start. Until then the taken tuples are invisible to
/// everyone else, and if the holder dies first they go back to the space:
/// a space server aborts the transactions of a connection that ends, an
/// in-process one aborts when the batch is dropped. `tuples` holds what
/// was taken on the way in, and what to write on the way out.
#[derive(Debug, Default)]
pub struct Batch {
    /// The transaction the batch is held under.
    pub txn: BatchTxn,
    /// Taken tuples on the way in; tuples to write on the way out.
    pub tuples: Vec<Tuple>,
}

/// The transaction a [`Batch`] is held under. Opaque; the default holds
/// none — an empty batch, or one taken bare, whose commit is a plain
/// batch write.
#[derive(Debug, Default)]
pub struct BatchTxn(pub(crate) Held);

#[derive(Debug, Default)]
pub(crate) enum Held {
    #[default]
    Bare,
    /// An in-process transaction; dropping it aborts.
    Local(Txn),
    /// A transaction the connection of a `RemoteSpace` opened, by the id
    /// the client chose for it.
    Wire(u64),
}

/// The operations every space client relies on.
///
/// A decorator (a store that wraps another) forwards every method it
/// does not mean to change: one that leaves a defaulted method out still
/// works, but silently gets the default's loop of plain calls instead of
/// the wrapped store's one-exchange version — and, for
/// [`TupleStore::take_batch`], bare takes instead of transactional ones.
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

    /// Commits `batch`: writes its tuples under its transaction, then
    /// commits that, so the batch's takes and writes land together or not
    /// at all. `Err(TxnInactive)` means the transaction was settled whole
    /// without this call, and not which way: a remote store's connection
    /// dropped, which aborted it unless the server had already applied a
    /// commit whose answer was lost — a resent commit is refused either
    /// way. So the batch's tuples are in the space once, as the taken
    /// tuples or as what the commit wrote.
    ///
    /// The default commits an in-process transaction through its [`Txn`]
    /// (a failed write drops it, which aborts), writes a bare batch's
    /// tuples plainly, and refuses a wire transaction, which only its
    /// `RemoteSpace` can commit.
    fn commit_batch(&self, batch: Batch) -> SpaceResult<()> {
        match batch.txn.0 {
            Held::Local(txn) => {
                txn.write_all(batch.tuples, Lease::Forever)?;
                txn.commit()
            }
            Held::Wire(_) => Err(SpaceError::Protocol(
                "a remote batch handed to a store that cannot commit it".into(),
            )),
            Held::Bare if batch.tuples.is_empty() => Ok(()),
            Held::Bare => self.write_all(batch.tuples).map(drop),
        }
    }

    /// A worker's refill point: commits `done` (a default [`Batch`]
    /// commits nothing), then takes up to `max` tuples, as
    /// [`TupleStore::take_up_to`] does, as a new batch under a new
    /// transaction (an empty batch holds none).
    /// [`crate::remote::RemoteSpace`] sends the two as one exchange.
    ///
    /// Both outcomes come back: a store that pipelines the pair has taken
    /// the new batch by the time it learns the commit failed, and the
    /// caller holds that batch like any other. The default takes bare,
    /// and only after a commit that succeeded.
    fn take_batch(
        &self,
        done: Batch,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> (SpaceResult<()>, SpaceResult<Batch>) {
        let committed = self.commit_batch(done);
        let taken = match committed {
            Ok(()) => self.take_up_to(template, max, timeout).map(|tuples| Batch {
                txn: BatchTxn::default(),
                tuples,
            }),
            Err(_) => Ok(Batch::default()),
        };
        (committed, taken)
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
        if self.is_closed() {
            return Err(SpaceError::Closed);
        }
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

    /// The commit, then — if it succeeded — a [`Txn::take_up_to`] under a
    /// new transaction, aborted again if it took nothing.
    fn take_batch(
        &self,
        done: Batch,
        template: &Template,
        max: usize,
        timeout: Option<Duration>,
    ) -> (SpaceResult<()>, SpaceResult<Batch>) {
        let committed = self.commit_batch(done);
        if committed.is_err() {
            return (committed, Ok(Batch::default()));
        }
        let taken = self.txn().and_then(|txn| {
            let tuples = txn.take_up_to(template, max, timeout)?;
            let txn = match tuples.is_empty() {
                true => BatchTxn::default(),
                false => BatchTxn(Held::Local(txn)),
            };
            Ok(Batch { txn, tuples })
        });
        (committed, taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceHandle;

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
        /// The trait's defaults over a space: bare writes and bare takes.
        struct Bare(SpaceHandle);
        impl TupleStore for Bare {
            fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
                self.0.write_leased(tuple, lease)
            }
            fn read(&self, t: &Template, d: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.read(t, d)
            }
            fn take(&self, t: &Template, d: Option<Duration>) -> SpaceResult<Option<Tuple>> {
                self.0.take(t, d)
            }
            fn count(&self, t: &Template) -> SpaceResult<usize> {
                TupleStore::count(&*self.0, t)
            }
            fn close(&self) {
                self.0.close()
            }
            fn is_closed(&self) -> bool {
                self.0.is_closed()
            }
        }
        let space = Space::new("pair");
        let store = Bare(space.clone());
        let t = Template::of_type("t");
        store.write_all((0..5).map(tuple).collect()).unwrap();
        let result = Tuple::build("r").field("id", 0i64).done();
        let done = Batch {
            txn: BatchTxn::default(),
            tuples: vec![result.clone()],
        };
        let (committed, taken) = store.take_batch(done, &t, 3, None);
        assert_eq!(committed, Ok(()));
        let taken = taken.unwrap();
        assert_eq!(taken.tuples.len(), 3);
        assert!(matches!(taken.txn.0, Held::Bare), "taken bare");
        assert_eq!(space.count(&t), 2, "a bare take removes at once");
        assert_eq!(space.count(&Template::of_type("r")), 1);
        store.close();
        let done = Batch {
            txn: BatchTxn::default(),
            tuples: vec![result],
        };
        let (committed, taken) = store.take_batch(done, &t, 3, None);
        assert!(committed.is_err());
        assert!(taken.unwrap().tuples.is_empty(), "no take is attempted");
    }

    #[test]
    fn a_space_batch_is_held_under_a_txn_until_its_commit() {
        let space = Space::new("batch");
        let store: StoreHandle = space.clone();
        let t = Template::of_type("t");
        store.write_all((0..5).map(tuple).collect()).unwrap();
        let (committed, taken) = store.take_batch(Batch::default(), &t, 3, None);
        assert_eq!(committed, Ok(()));
        let mut batch = taken.unwrap();
        assert_eq!(batch.tuples.len(), 3);
        assert_eq!(space.count(&t), 2, "taken tuples are invisible");
        // Dropped uncommitted: everything is back.
        drop(batch);
        assert_eq!(space.count(&t), 5);
        // Committed with one result and one task handed back.
        batch = store.take_batch(Batch::default(), &t, 3, None).1.unwrap();
        let back = batch.tuples.pop().unwrap();
        batch.tuples = vec![Tuple::build("r").field("id", 0i64).done(), back];
        store.commit_batch(batch).unwrap();
        assert_eq!(space.count(&t), 3, "two tasks consumed, one handed back");
        assert_eq!(space.count(&Template::of_type("r")), 1);
        // Nothing to take: an empty batch holds no transaction.
        let empty = store
            .take_batch(
                Batch::default(),
                &Template::of_type("none"),
                3,
                Some(Duration::ZERO),
            )
            .1
            .unwrap();
        assert!(empty.tuples.is_empty() && matches!(empty.txn.0, Held::Bare));
    }
}
