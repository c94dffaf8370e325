//! PageRank-based web-page pre-fetching on the adaptive cluster (paper
//! §5.1.3).
//!
//! Generates a synthetic 500-page web cluster, computes PageRank by
//! strip-parallel power iteration (25 tasks of 20 rows per iteration, with
//! the inter-iteration barrier at the master), and then measures the cache
//! hit-rate gain that rank-driven pre-fetching buys a simulated user.
//!
//! Run with: `cargo run --release --example prefetch`

use std::time::Duration;

use adaptive_spaces::apps::prefetch::{
    generate_cluster, pagerank_sequential, run_pagerank_parallel, simulate_sessions, LinkGraph,
    PrefetchApp,
};
use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{ClusterBuilder, FrameworkConfig, Master};

fn main() {
    let config = FrameworkConfig {
        poll_interval: Duration::from_millis(20),
        ..FrameworkConfig::default()
    };
    let mut cluster = ClusterBuilder::new(config).build();

    let mut app = PrefetchApp::paper_configuration();
    println!(
        "page cluster: {} pages, strips of 20 => {} tasks per iteration",
        app.matrix().n(),
        25
    );

    cluster.install(&app);
    for i in 0..4 {
        cluster.add_worker(NodeSpec::new(format!("ranker-{i}"), 800, 256));
    }

    // Parallel PageRank: one master round per power iteration.
    let master = Master::new(cluster.store());
    let reports = run_pagerank_parallel(&master, &mut app).expect("iterations complete");
    println!(
        "converged after {} iterations (delta {:.2e})",
        app.iterations(),
        app.last_delta()
    );
    let total_ms: f64 = reports.iter().map(|r| r.times.parallel_ms).sum();
    println!("total parallel time across iterations: {total_ms:.1} ms");

    // Must equal the sequential solver bit-for-bit.
    let (seq_ranks, seq_iters) = pagerank_sequential(&app.matrix(), &app.solver);
    assert_eq!(app.iterations(), seq_iters);
    assert_eq!(app.ranks(), &seq_ranks[..], "parallel == sequential");

    // The payoff: pre-fetching important linked pages improves cache hits.
    let pages = generate_cluster("acme", 500, 2001);
    let graph = LinkGraph::from_pages(&pages);
    let stats = simulate_sessions(&graph, app.ranks(), 20_000, 12, 5, 7);
    println!();
    println!("user-session simulation over {} requests:", stats.requests);
    println!(
        "  hit rate, plain LRU cache : {:5.1}%",
        stats.hit_rate_plain * 100.0
    );
    println!(
        "  hit rate, with prefetching: {:5.1}%",
        stats.hit_rate_prefetch * 100.0
    );

    cluster.shutdown();
}
