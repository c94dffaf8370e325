//! `acc-top`: a live terminal dashboard over the cluster view.
//!
//! Polls a running cluster's `/cluster` route (mounted by `ACC_OBSERVE` or
//! `ClusterBuilder::observe`) and redraws the per-worker table — load and
//! framework load from the monitor's SNMP polls, results attributed,
//! throughput and compute-time quantiles from the result tuples, the age
//! of the newest poll, and straggler flags — like `top`, but for the whole
//! cluster.
//!
//! ```text
//! cargo run --release --example acc_top -- 127.0.0.1:9137
//! ```
//!
//! Flags:
//! * `--once`         fetch `/cluster.json` once, print it raw, and exit
//!   (the headless/CI mode). The latest job's `/profile` waterfall, when
//!   the server has one, goes to stderr so stdout stays pure JSON.
//! * `--interval-ms N` redraw period (default 1000).
//!
//! The address defaults to `$ACC_OBSERVE`, then `127.0.0.1:9137`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some((head, body)) = raw.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "malformed HTTP response",
        ));
    };
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("?");
        return Err(std::io::Error::other(format!("server said: {status}")));
    }
    Ok(body.to_owned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    let interval_ms: u64 = args
        .iter()
        .position(|a| a == "--interval-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let addr = args
        .iter()
        .find(|a| !a.starts_with("--") && a.contains(':'))
        .cloned()
        .or_else(|| std::env::var("ACC_OBSERVE").ok().filter(|v| !v.is_empty()))
        .unwrap_or_else(|| "127.0.0.1:9137".into());

    if once {
        // Headless mode: one JSON snapshot on stdout, for scripts and CI.
        match http_get(&addr, "/cluster.json") {
            Ok(body) => println!("{body}"),
            Err(e) => {
                eprintln!("acc-top: {addr}: {e}");
                std::process::exit(1);
            }
        }
        // The JobProfile section: latest job's waterfall, if the server
        // exposes /profile (older servers don't — stay quiet then).
        if let Ok(profile) = http_get(&addr, "/profile") {
            eprintln!("--- JobProfile ---");
            eprint!("{profile}");
        }
        return;
    }

    let mut failures = 0u32;
    loop {
        match http_get(&addr, "/cluster") {
            Ok(body) => {
                failures = 0;
                // Clear screen + home, then the cluster table as-is.
                print!("\x1b[2J\x1b[H");
                println!("acc-top — {addr} (refresh {interval_ms} ms, ctrl-c to quit)");
                println!();
                print!("{body}");
                // Latest job's profile waterfall, when the server has one.
                if let Ok(profile) = http_get(&addr, "/profile") {
                    println!();
                    print!("{profile}");
                }
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                failures += 1;
                eprintln!("acc-top: {addr}: {e}");
                if failures >= 5 {
                    eprintln!("acc-top: giving up after {failures} consecutive failures");
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}
