//! Regenerates the paper's evaluation artifacts.
//!
//! Usage: `cargo run --release -p acc-bench --bin repro -- [artifact...]`
//! where each artifact is one of `fig6 fig7 fig8 fig9 fig10 fig11 exp3
//! table2 all` (default `all`).

use acc_bench::{ascii_plot, Table};
use acc_cluster::LoadTrace;
use acc_core::Thresholds;
use acc_sim::cluster::{simulate, SimConfig};
use acc_sim::{run_adaptation, run_dynamics, run_scalability, AppProfile};
use acc_telemetry::registry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "exp3",
            "table2",
            "ablations",
            "hetero",
            "baseline",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    for artifact in wanted {
        match artifact {
            "fig6" => scalability_figure("Figure 6", &AppProfile::option_pricing(), None),
            "fig7" => scalability_figure("Figure 7", &AppProfile::ray_tracing(), None),
            "fig8" => scalability_figure("Figure 8", &AppProfile::prefetch(), None),
            "fig9" => adaptation_figure("Figure 9", &AppProfile::option_pricing()),
            "fig10" => adaptation_figure("Figure 10", &AppProfile::ray_tracing()),
            "fig11" => adaptation_figure("Figure 11", &AppProfile::prefetch()),
            "exp3" => dynamics_experiment(),
            "table2" => table2(),
            "ablations" => ablations(),
            "hetero" => heterogeneity(),
            "baseline" => baseline(),
            other => eprintln!("unknown artifact: {other}"),
        }
    }
    // Everything the simulator just replayed also landed in the global
    // telemetry registry (sim.* virtual-time series plus any real-runtime
    // series); persist the dump next to the captured stdout so regenerated
    // figures come with their per-phase histograms.
    match std::fs::write("telemetry.json", registry().to_json().to_string()) {
        Ok(()) => eprintln!("telemetry written to telemetry.json"),
        Err(e) => eprintln!("could not write telemetry.json: {e}"),
    }
}

/// Baseline — adaptive parallelism vs Condor-style job-level parallelism
/// under round-robin eviction churn (paper §2's two categories).
fn baseline() {
    println!("== Baseline — adaptive parallelism vs job-level parallelism (churn) ==");
    let mut table = Table::new(&[
        "application",
        "adaptive (this framework) ms",
        "job-level (Condor model) ms",
        "advantage",
        "migrations paid",
    ]);
    for profile in AppProfile::all() {
        let row = acc_sim::run_baseline_comparison(&profile, 60_000);
        table.row(vec![
            row.app.clone(),
            format!("{:.0}", row.adaptive_ms),
            format!("{:.0}", row.job_level_ms),
            format!("{:.2}x", row.job_level_ms / row.adaptive_ms),
            row.migrations.to_string(),
        ]);
    }
    println!("{}", table.render());
}

/// Extension — heterogeneity: worker-driven bag-of-tasks vs static
/// partitioning on a mixed 300/800 MHz cluster.
fn heterogeneity() {
    println!("== Extension — Heterogeneous cluster (mixed 300/800 MHz workers) ==");
    let mut table = Table::new(&[
        "application",
        "workers",
        "bag-of-tasks (ms)",
        "static partition (ms)",
        "advantage",
        "fast-node tasks",
        "slow-node tasks",
    ]);
    for profile in AppProfile::all() {
        for n in [2usize, 4] {
            let row = acc_sim::run_heterogeneity(&profile, n);
            table.row(vec![
                profile.name.clone(),
                n.to_string(),
                format!("{:.0}", row.bag_of_tasks_ms),
                format!("{:.0}", row.static_partition_ms),
                format!("{:.2}x", row.static_partition_ms / row.bag_of_tasks_ms),
                row.fast_node_tasks.to_string(),
                row.slow_node_tasks.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// The design ablations of DESIGN.md §5, in virtual time.
fn ablations() {
    println!("== Ablations — design choices under transient load ==");

    // 1. Pause/Resume vs Stop-only under pause-band flapping. Short tasks
    // (pre-fetching) flap often: Stop-only pays class loading per cycle.
    let run_thresholds = |thresholds: Thresholds| {
        let mut profile = AppProfile::prefetch();
        profile.tasks = 400;
        let mut cfg = SimConfig::new(profile, 2);
        cfg.cost.thresholds = thresholds;
        cfg.traces[0] = Some(LoadTrace::flapping(40, 600_000, 2_000));
        cfg.horizon_ms = 600_000.0;
        simulate(cfg)
    };
    let with_pause = run_thresholds(Thresholds::paper());
    let stop_only = run_thresholds(Thresholds::new(25, 25));
    let mut t = Table::new(&[
        "policy",
        "parallel (ms)",
        "tasks by flapped worker",
        "signals on flapped worker",
    ]);
    for (label, out) in [
        ("Pause/Resume (paper)", &with_pause),
        ("Stop-only (no Paused state)", &stop_only),
    ] {
        t.row(vec![
            label.into(),
            format!("{:.0}", out.times.parallel_ms),
            out.workers[0].tasks_done.to_string(),
            out.workers[0].signal_log.len().to_string(),
        ]);
    }
    println!("-- 1. Paused state vs Stop-only --\n{}", t.render());

    // 2. Poll interval: reaction latency governs how long the framework
    // keeps computing on a node its owner has reclaimed (intrusiveness).
    let mut t = Table::new(&[
        "poll interval (ms)",
        "intrusion on flapped worker (ms)",
        "parallel (ms)",
    ]);
    for interval in [50.0f64, 250.0, 1000.0, 4000.0] {
        let mut profile = AppProfile::prefetch();
        profile.tasks = 400;
        let mut cfg = SimConfig::new(profile, 2);
        cfg.cost.poll_interval_ms = interval;
        // Flap period co-prime with the poll intervals so the poll grid
        // does not alias onto the load transitions.
        cfg.traces[0] = Some(LoadTrace::flapping(40, 600_000, 7_300));
        cfg.horizon_ms = 600_000.0;
        let out = simulate(cfg);
        t.row(vec![
            format!("{interval:.0}"),
            format!("{:.0}", out.workers[0].intrusion_ms),
            format!("{:.0}", out.times.parallel_ms),
        ]);
    }
    println!("-- 2. SNMP poll interval --\n{}", t.render());

    // 3. Task granularity at constant total work (4 workers, pricing).
    let base = AppProfile::option_pricing();
    let total_work = base.task_work_ms * base.tasks as f64;
    let mut t = Table::new(&["tasks", "task work (ms)", "planning (ms)", "parallel (ms)"]);
    for tasks in [10usize, 50, 100, 500] {
        let mut profile = base.clone();
        profile.tasks = tasks;
        profile.task_work_ms = total_work / tasks as f64;
        let out = simulate(SimConfig::new(profile.clone(), 4));
        t.row(vec![
            tasks.to_string(),
            format!("{:.0}", profile.task_work_ms),
            format!("{:.0}", out.times.task_planning_ms),
            format!("{:.0}", out.times.parallel_ms),
        ]);
    }
    println!(
        "-- 3. Task granularity (option pricing, 4 workers) --\n{}",
        t.render()
    );

    // 4. Class-load cost under stop-inducing flaps.
    let mut t = Table::new(&["class load (ms)", "parallel (ms)"]);
    for cost in [0.0f64, 350.0, 2000.0] {
        let mut cfg = SimConfig::new(AppProfile::ray_tracing(), 2);
        cfg.cost.class_load_ms = cost;
        cfg.traces[0] = Some(LoadTrace::flapping(100, 600_000, 6_000));
        cfg.horizon_ms = 600_000.0;
        let out = simulate(cfg);
        t.row(vec![
            format!("{cost:.0}"),
            format!("{:.0}", out.times.parallel_ms),
        ]);
    }
    println!("-- 4. Class-loading cost sensitivity --\n{}", t.render());
}

fn scalability_figure(label: &str, profile: &AppProfile, cap: Option<usize>) {
    println!(
        "== {label} — Scalability Analysis, {} ({} tasks, testbed {}) ==",
        profile.name, profile.tasks, profile.testbed.name
    );
    let rows = run_scalability(profile, cap);
    let mut table = Table::new(&[
        "workers",
        "max worker (ms)",
        "parallel (ms)",
        "task planning (ms)",
        "task aggregation (ms)",
        "speedup",
    ]);
    let base = rows[0].parallel_ms;
    for row in &rows {
        table.row(vec![
            row.workers.to_string(),
            format!("{:.0}", row.max_worker_ms),
            format!("{:.0}", row.parallel_ms),
            format!("{:.0}", row.task_planning_ms),
            format!("{:.0}", row.task_aggregation_ms),
            format!("{:.2}x", base / row.parallel_ms),
        ]);
    }
    println!("{}", table.render());
}

fn adaptation_figure(label: &str, profile: &AppProfile) {
    println!(
        "== {label} — Adaptation Protocol Analysis, {} ==",
        profile.name
    );
    let report = run_adaptation(profile);
    println!("-- (a) worker CPU usage over the scripted load sequence --");
    let points: Vec<(u64, u64)> = report.usage.iter().map(|p| (p.at_ms, p.load)).collect();
    print!("{}", ascii_plot(&points, 20));
    println!();
    println!("-- (b) signal reaction times --");
    let mut table = Table::new(&[
        "signal",
        "client signal (ms)",
        "worker signal (ms)",
        "reaction (ms)",
        "new state",
    ]);
    for entry in &report.signals {
        table.row(vec![
            entry.signal.to_string(),
            entry.client_signal_ms.to_string(),
            entry.worker_signal_ms.to_string(),
            entry.reaction_ms().to_string(),
            entry.new_state.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "tasks completed despite interference: {}",
        report.tasks_done
    );
    println!();
}

fn dynamics_experiment() {
    println!("== §5.2.3 — Dynamic Worker Behaviour under Varying Load ==");
    for profile in AppProfile::all() {
        println!(
            "-- {} ({} workers) --",
            profile.name,
            profile.testbed.worker_count()
        );
        let mut table = Table::new(&[
            "loaded workers",
            "max worker (ms)",
            "max master overhead (ms)",
            "planning+aggregation (ms)",
            "total parallel (ms)",
            "tasks on loaded workers",
        ]);
        for row in run_dynamics(&profile) {
            table.row(vec![
                format!(
                    "{} ({:.0}%)",
                    row.loaded_workers,
                    row.loaded_fraction * 100.0
                ),
                format!("{:.0}", row.max_worker_ms),
                format!("{:.1}", row.max_master_overhead_ms),
                format!("{:.0}", row.planning_and_aggregation_ms),
                format!("{:.0}", row.total_parallel_ms),
                row.tasks_on_loaded_workers.to_string(),
            ]);
        }
        println!("{}", table.render());
    }
}

/// Table 2 — classification of the evaluated applications, derived
/// empirically from the reproduced implementations.
fn table2() {
    println!("== Table 2 — Classification of the Evaluated Applications ==");
    let mut table = Table::new(&["metric", "option pricing", "ray tracing", "pre-fetching"]);

    // Scalability: the paper's class, with this reproduction's measured
    // speedup on the app's own testbed alongside.
    let speedups: Vec<f64> = AppProfile::all()
        .iter()
        .map(|p| {
            let rows = run_scalability(p, None);
            rows[0].parallel_ms / rows.last().unwrap().parallel_ms
        })
        .collect();
    table.row(vec![
        "scalability (paper / measured)".into(),
        format!("Medium / {:.1}x on 13", speedups[0]),
        format!("High / {:.1}x on 5", speedups[1]),
        format!("Low / {:.1}x on 5", speedups[2]),
    ]);
    table.row(vec![
        "CPU per task (ref. machine)".into(),
        format!(
            "{:.0} ms (adaptable w/ #sims)",
            AppProfile::option_pricing().task_work_ms
        ),
        format!("{:.0} ms (high)", AppProfile::ray_tracing().task_work_ms),
        format!("{:.0} ms (low)", AppProfile::prefetch().task_work_ms),
    ]);
    table.row(vec![
        "memory / result size".into(),
        "tiny (two doubles)".into(),
        "large (25x600 RGB strip)".into(),
        "small (20 doubles)".into(),
    ]);
    table.row(vec![
        "task dependency".into(),
        "none".into(),
        "none".into(),
        "inter-iteration barrier".into(),
    ]);
    println!("{}", table.render());
}
