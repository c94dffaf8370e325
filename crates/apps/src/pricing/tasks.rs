//! The pricing application as the framework sees it.
//!
//! The simulation domain is divided into independent tasks; each Monte-Carlo
//! task runs one estimator — High or Low — over a block of simulations
//! (paper: 50 tasks × 100 simulations, doubled into 100 subtasks by the
//! high/low split). The aggregator averages the two streams into the final
//! price bracket.

use std::sync::Arc;

use acc_core::{Application, ExecError, TaskEntry, TaskExecutor, TaskSpec};
use acc_tuplespace::{Payload, PayloadError, WireReader, WireWriter};

use super::model::{OptionSpec, OptionStyle};
use super::tree::{bg_tree_estimate, european_mc_estimate};

/// Which of the Broadie–Glasserman pair a task computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The high-biased estimator.
    High,
    /// The low-biased estimator.
    Low,
}

impl Estimator {
    fn code(self) -> u8 {
        match self {
            Estimator::High => 0,
            Estimator::Low => 1,
        }
    }

    fn from_code(code: u8) -> Result<Estimator, PayloadError> {
        match code {
            0 => Ok(Estimator::High),
            1 => Ok(Estimator::Low),
            _ => Err(PayloadError::Corrupt("estimator code")),
        }
    }
}

/// Input payload of one pricing task.
#[derive(Debug, Clone, PartialEq)]
pub struct PricingTaskInput {
    /// The contract being priced.
    pub spec: OptionSpec,
    /// High or low estimator.
    pub estimator: Estimator,
    /// Number of simulations (trees or paths) in this task.
    pub sims: u32,
    /// Base RNG seed; simulation `i` uses `seed + i`.
    pub seed: u64,
    /// Random-tree branching factor (American only).
    pub branching: u32,
    /// Random-tree depth / number of exercise dates (American only).
    pub depth: u32,
}

impl Payload for PricingTaskInput {
    fn encode(&self, w: &mut WireWriter) {
        self.spec.encode(w);
        w.put_u8(self.estimator.code());
        w.put_u32(self.sims);
        w.put_u64(self.seed);
        w.put_u32(self.branching);
        w.put_u32(self.depth);
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        Ok(PricingTaskInput {
            spec: OptionSpec::decode(r)?,
            estimator: Estimator::from_code(r.get_u8()?)?,
            sims: r.get_u32()?,
            seed: r.get_u64()?,
            branching: r.get_u32()?,
            depth: r.get_u32()?,
        })
    }
}

/// Output payload of one pricing task.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PricingTaskOutput {
    estimator: Estimator,
    sum: f64,
    sims: u32,
}

impl Payload for PricingTaskOutput {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.estimator.code());
        w.put_f64(self.sum);
        w.put_u32(self.sims);
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        Ok(PricingTaskOutput {
            estimator: Estimator::from_code(r.get_u8()?)?,
            sum: r.get_f64()?,
            sims: r.get_u32()?,
        })
    }
}

/// Runs one pricing task; shared by the worker executor and the sequential
/// baseline so both produce bit-identical sums.
pub(crate) fn run_task(input: &PricingTaskInput) -> PricingTaskOutput {
    let mut sum = 0.0;
    match input.spec.style {
        OptionStyle::European => {
            // High and low coincide for European contracts: plain MC.
            for i in 0..input.sims {
                sum += european_mc_estimate(&input.spec, 1, input.seed + i as u64);
            }
        }
        OptionStyle::American => {
            for i in 0..input.sims {
                let (high, low) = bg_tree_estimate(
                    &input.spec,
                    input.branching,
                    input.depth,
                    input.seed + i as u64,
                );
                sum += match input.estimator {
                    Estimator::High => high,
                    Estimator::Low => low,
                };
            }
        }
    }
    PricingTaskOutput {
        estimator: input.estimator,
        sum,
        sims: input.sims,
    }
}

/// The final price bracket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricingResult {
    /// Mean of the high-biased estimates.
    pub high: f64,
    /// Mean of the low-biased estimates.
    pub low: f64,
}

impl PricingResult {
    /// The point estimate the paper reports: the bracket midpoint.
    pub fn point(&self) -> f64 {
        0.5 * (self.high + self.low)
    }
}

/// The option-pricing application.
#[derive(Debug, Clone)]
pub struct PricingApp {
    /// The contract being priced.
    pub spec: OptionSpec,
    /// Number of High/Low task *pairs* (paper: 50 → 100 subtasks).
    pub task_pairs: u32,
    /// Simulations per task (paper: 100).
    pub sims_per_task: u32,
    /// Random-tree branching factor.
    pub branching: u32,
    /// Random-tree depth.
    pub depth: u32,
    /// Base seed; tasks derive disjoint streams from it.
    pub base_seed: u64,
    /// Per-task outputs keyed by task id, so the final fold is in task
    /// order regardless of result arrival order — parallel and sequential
    /// runs are bit-identical.
    parts: std::collections::BTreeMap<u64, PricingTaskOutput>,
}

impl PricingApp {
    /// An app with explicit decomposition parameters.
    pub fn new(spec: OptionSpec, task_pairs: u32, sims_per_task: u32) -> PricingApp {
        PricingApp {
            spec,
            task_pairs,
            sims_per_task,
            branching: 4,
            depth: 3,
            base_seed: 0x5EED,
            parts: std::collections::BTreeMap::new(),
        }
    }

    /// The paper's configuration: 10 000 simulations as 50 task pairs of
    /// 100 simulations (100 subtasks in the space).
    pub fn paper_configuration() -> PricingApp {
        PricingApp::new(OptionSpec::paper_default(), 50, 100)
    }

    /// The task inputs this app decomposes into (also used by the
    /// sequential baseline).
    pub fn task_inputs(&self) -> Vec<PricingTaskInput> {
        let mut inputs = Vec::with_capacity(self.task_pairs as usize * 2);
        for pair in 0..self.task_pairs {
            // Disjoint seed blocks per pair; High and Low share the seeds of
            // the same trees, exactly as one tree yields both estimates.
            let seed = self.base_seed + pair as u64 * self.sims_per_task as u64;
            for estimator in [Estimator::High, Estimator::Low] {
                inputs.push(PricingTaskInput {
                    spec: self.spec,
                    estimator,
                    sims: self.sims_per_task,
                    seed,
                    branching: self.branching,
                    depth: self.depth,
                });
            }
        }
        inputs
    }

    /// The aggregated price bracket (valid once a run completes). Parts
    /// are folded in task-id order, so the result does not depend on the
    /// order workers returned them.
    pub fn result(&self) -> PricingResult {
        let mut high_sum = 0.0;
        let mut high_n = 0u64;
        let mut low_sum = 0.0;
        let mut low_n = 0u64;
        for out in self.parts.values() {
            match out.estimator {
                Estimator::High => {
                    high_sum += out.sum;
                    high_n += out.sims as u64;
                }
                Estimator::Low => {
                    low_sum += out.sum;
                    low_n += out.sims as u64;
                }
            }
        }
        PricingResult {
            high: if high_n > 0 {
                high_sum / high_n as f64
            } else {
                f64::NAN
            },
            low: if low_n > 0 {
                low_sum / low_n as f64
            } else {
                f64::NAN
            },
        }
    }

    pub(crate) fn absorb_output(&mut self, task_id: u64, out: PricingTaskOutput) {
        self.parts.insert(task_id, out);
    }
}

struct PricingExecutor;

impl TaskExecutor for PricingExecutor {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        let input: PricingTaskInput = task.input()?;
        Ok(run_task(&input).to_bytes())
    }
}

impl Application for PricingApp {
    fn job_name(&self) -> String {
        "option-pricing".into()
    }

    fn bundle_name(&self) -> String {
        "option-pricing-worker".into()
    }

    fn bundle_kb(&self) -> usize {
        48 // a small numerical kernel
    }

    fn plan(&mut self) -> Vec<TaskSpec> {
        self.task_inputs()
            .iter()
            .enumerate()
            .map(|(i, input)| TaskSpec::new(i as u64, input))
            .collect()
    }

    fn executor(&self) -> Arc<dyn TaskExecutor> {
        Arc::new(PricingExecutor)
    }

    fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        let out = PricingTaskOutput::from_bytes(payload).map_err(ExecError::Decode)?;
        self.absorb_output(task_id, out);
        Ok(())
    }

    fn snapshot_partials(&self) -> Option<Vec<u8>> {
        let mut w = WireWriter::new();
        w.put_u32(self.parts.len() as u32);
        for (task_id, out) in &self.parts {
            w.put_u64(*task_id);
            out.encode(&mut w);
        }
        Some(w.into_vec())
    }

    fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
        let mut r = WireReader::new(bytes::Bytes::copy_from_slice(bytes));
        let count = r.get_u32().map_err(ExecError::Decode)?;
        let mut parts = std::collections::BTreeMap::new();
        for _ in 0..count {
            let task_id = r.get_u64().map_err(ExecError::Decode)?;
            let out = PricingTaskOutput::decode(&mut r).map_err(ExecError::Decode)?;
            parts.insert(task_id, out);
        }
        if r.remaining() != 0 {
            return Err(ExecError::Decode(PayloadError::Corrupt("trailing bytes")));
        }
        self.parts = parts;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_payload_roundtrip() {
        let input = PricingTaskInput {
            spec: OptionSpec::paper_default(),
            estimator: Estimator::Low,
            sims: 100,
            seed: 42,
            branching: 4,
            depth: 3,
        };
        assert_eq!(
            PricingTaskInput::from_bytes(&input.to_bytes()).unwrap(),
            input
        );
    }

    #[test]
    fn paper_configuration_yields_100_subtasks() {
        let mut app = PricingApp::paper_configuration();
        let specs = app.plan();
        assert_eq!(specs.len(), 100);
        // 50 high + 50 low.
        let inputs: Vec<PricingTaskInput> = specs
            .iter()
            .map(|s| PricingTaskInput::from_bytes(&s.payload).unwrap())
            .collect();
        assert_eq!(
            inputs
                .iter()
                .filter(|i| i.estimator == Estimator::High)
                .count(),
            50
        );
        assert_eq!(
            inputs
                .iter()
                .filter(|i| i.estimator == Estimator::Low)
                .count(),
            50
        );
        // Total simulations = 10 000 (5 000 trees, each estimated twice).
        let total: u32 = inputs.iter().map(|i| i.sims).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn executor_and_absorb_agree_with_direct_run() {
        let mut app = PricingApp::new(OptionSpec::paper_default(), 3, 10);
        let exec = app.executor();
        for (i, input) in app.task_inputs().iter().enumerate() {
            let entry = TaskEntry::new("option-pricing", i as u64, input.to_bytes());
            let payload = exec.execute(&entry).unwrap();
            app.absorb(i as u64, &payload).unwrap();
        }
        let result = app.result();
        assert!(result.high >= result.low);
        assert!(result.point() > 0.0);
    }

    #[test]
    fn seed_blocks_are_disjoint_across_pairs() {
        let app = PricingApp::new(OptionSpec::paper_default(), 4, 25);
        let inputs = app.task_inputs();
        let mut seeds: Vec<u64> = inputs
            .iter()
            .filter(|i| i.estimator == Estimator::High)
            .map(|i| i.seed)
            .collect();
        seeds.sort_unstable();
        for window in seeds.windows(2) {
            assert!(window[1] - window[0] >= 25, "seed blocks overlap");
        }
    }

    #[test]
    fn high_low_share_tree_seeds() {
        let app = PricingApp::new(OptionSpec::paper_default(), 2, 10);
        let inputs = app.task_inputs();
        assert_eq!(inputs[0].seed, inputs[1].seed);
        assert_ne!(inputs[0].estimator, inputs[1].estimator);
    }

    #[test]
    fn partials_snapshot_restore_roundtrip() {
        let mut app = PricingApp::new(OptionSpec::paper_default(), 2, 5);
        let exec = app.executor();
        let inputs = app.task_inputs();
        // Absorb half the results, snapshot, restore into a fresh app, then
        // finish the job there: the final bracket must match a straight run.
        for (i, input) in inputs.iter().enumerate().take(2) {
            let entry = TaskEntry::new("option-pricing", i as u64, input.to_bytes());
            app.absorb(i as u64, &exec.execute(&entry).unwrap())
                .unwrap();
        }
        let snapshot = app.snapshot_partials().unwrap();

        let mut resumed = PricingApp::new(OptionSpec::paper_default(), 2, 5);
        resumed.restore_partials(&snapshot).unwrap();
        for (i, input) in inputs.iter().enumerate().skip(2) {
            let entry = TaskEntry::new("option-pricing", i as u64, input.to_bytes());
            resumed
                .absorb(i as u64, &exec.execute(&entry).unwrap())
                .unwrap();
            app.absorb(i as u64, &exec.execute(&entry).unwrap())
                .unwrap();
        }
        assert_eq!(resumed.result(), app.result());
        assert!(resumed.restore_partials(&[1, 2, 3]).is_err());
    }

    #[test]
    fn empty_result_is_nan() {
        let app = PricingApp::new(OptionSpec::paper_default(), 1, 1);
        assert!(app.result().high.is_nan());
        assert!(app.result().low.is_nan());
    }
}
