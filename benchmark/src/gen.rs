//! Seeded input generators. The same seed gives the same inputs; the
//! program under test receives only what is generated here.

use acc_apps::SplitMix64;
use acc_core::task::TASK_TYPE;
use acc_tuplespace::{Template, Tuple};

/// The seed that reproduces the paper configurations exactly (it is the
/// page-graph seed of `PrefetchApp::paper_configuration`).
pub const DEFAULT_SEED: u64 = 2001;

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One `bytes`-long random payload per task of a null job.
pub fn null_payloads(seed: u64, tasks: usize, bytes: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0x6e75_6c6c);
    (0..tasks).map(|_| random_bytes(&mut rng, bytes)).collect()
}

/// Number of other jobs the `space_ops` resident backlog belongs to.
pub const BACKLOG_JOBS: u64 = 64;
/// Bytes in the unindexed `key` field.
pub const KEY_BYTES: usize = 16;

/// A tuple in the framework's task shape plus a `Bytes` `key` field.
pub fn keyed_task(job: &str, task_id: i64, payload: Vec<u8>, key: Vec<u8>) -> Tuple {
    Tuple::build(TASK_TYPE)
        .field("job", job)
        .field("task_id", task_id)
        .field("payload", payload)
        .field("retries", 0i64)
        .field("key", key)
        .done()
}

/// The resident set `space_ops` matches against: `n` task tuples of 64
/// other jobs, in a seeded job order, each with a random payload and key.
pub fn backlog(seed: u64, n: usize) -> Vec<Tuple> {
    let mut rng = SplitMix64::new(seed ^ 0x6261_636b);
    (0..n)
        .map(|i| {
            let job = format!("resident-{:02}", rng.next_below(BACKLOG_JOBS));
            let payload = random_bytes(&mut rng, 64);
            let key = random_bytes(&mut rng, KEY_BYTES);
            keyed_task(&job, i as i64, payload, key)
        })
        .collect()
}

/// Cycles per block of the `space_ops` loop; one cycle of each block also
/// runs the unindexed pair.
pub const BLOCK_CYCLES: u64 = 8;

/// One `space_ops` cycle as a client issues it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// The tuple written, then read by `task_id`, then taken by `job`.
    pub tuple: Tuple,
    pub task_id: i64,
    /// On one seeded cycle of every block: a second tuple, written and
    /// taken back by exact `key` match (the scan path).
    pub scan: Option<(Tuple, Vec<u8>)>,
}

/// The op sequence of one `space_ops` client: an endless, seeded stream of
/// cycles. Task ids are unique per client and disjoint from the backlog's.
pub struct OpStream {
    rng: SplitMix64,
    job: String,
    base: i64,
    cycle: u64,
    scan_slot: u64,
}

impl OpStream {
    pub fn new(seed: u64, client: u64) -> OpStream {
        OpStream {
            rng: SplitMix64::new(seed ^ (0x6f70_7300 + client)),
            job: format!("ops-client-{client}"),
            base: ((client + 1) << 40) as i64,
            cycle: 0,
            scan_slot: 0,
        }
    }

    pub fn by_job(&self) -> Template {
        Template::build(TASK_TYPE)
            .eq("job", self.job.as_str())
            .done()
    }

    pub fn by_task_id(task_id: i64) -> Template {
        Template::build(TASK_TYPE).eq("task_id", task_id).done()
    }

    pub fn by_key(key: &[u8]) -> Template {
        Template::build(TASK_TYPE).eq("key", key.to_vec()).done()
    }
}

impl Iterator for OpStream {
    type Item = Cycle;

    fn next(&mut self) -> Option<Cycle> {
        let in_block = self.cycle % BLOCK_CYCLES;
        if in_block == 0 {
            self.scan_slot = self.rng.next_below(BLOCK_CYCLES);
        }
        // Two ids per cycle: the indexed tuple's and the scan tuple's.
        let task_id = self.base + (self.cycle * 2) as i64;
        let payload = random_bytes(&mut self.rng, 64);
        let key = random_bytes(&mut self.rng, KEY_BYTES);
        let tuple = keyed_task(&self.job, task_id, payload, key);
        let scan = (in_block == self.scan_slot).then(|| {
            let payload = random_bytes(&mut self.rng, 64);
            let key = random_bytes(&mut self.rng, KEY_BYTES);
            // A job of its own, so the indexed take-by-job of this client
            // can never pick the scan tuple up.
            let job = format!("{}-scan", self.job);
            (keyed_task(&job, task_id + 1, payload, key.clone()), key)
        });
        self.cycle += 1;
        Some(Cycle {
            tuple,
            task_id,
            scan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(null_payloads(5, 40, 64), null_payloads(5, 40, 64));
        assert_ne!(null_payloads(5, 40, 64), null_payloads(6, 40, 64));
        assert!(null_payloads(5, 40, 64).iter().all(|p| p.len() == 64));

        assert_eq!(backlog(5, 300), backlog(5, 300));
        assert_ne!(backlog(5, 300), backlog(6, 300));

        let ops = |seed, client| OpStream::new(seed, client).take(200).collect::<Vec<_>>();
        assert_eq!(ops(5, 0), ops(5, 0));
        assert_ne!(ops(5, 0), ops(6, 0));
        assert_ne!(ops(5, 0), ops(5, 1));
    }

    #[test]
    fn every_block_scans_exactly_once_at_a_seeded_position() {
        let cycles: Vec<Cycle> = OpStream::new(9, 0).take(8 * 50).collect();
        let mut positions = std::collections::BTreeSet::new();
        for block in cycles.chunks(BLOCK_CYCLES as usize) {
            let scans: Vec<usize> = block
                .iter()
                .enumerate()
                .filter(|(_, c)| c.scan.is_some())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(scans.len(), 1);
            positions.insert(scans[0]);
        }
        assert!(positions.len() > 1, "the scan position moves with the seed");
    }

    #[test]
    fn backlog_has_the_task_shape_and_ids_never_collide_with_clients() {
        let resident = backlog(1, 1_000);
        let jobs: std::collections::BTreeSet<_> = resident
            .iter()
            .map(|t| t.get_str("job").expect("job field").to_owned())
            .collect();
        assert!(jobs.len() > 32 && jobs.len() <= BACKLOG_JOBS as usize);
        assert!(resident
            .iter()
            .all(|t| t.get_bytes("key").map(<[u8]>::len) == Some(KEY_BYTES)));
        let first = OpStream::new(1, 0).next().expect("endless stream");
        assert!(first.task_id > resident.len() as i64);
        assert!(OpStream::by_task_id(first.task_id).matches(&first.tuple));
    }
}
