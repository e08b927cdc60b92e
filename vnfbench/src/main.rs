//! vnfguard benchmark: one named workload per run, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --manifest-path vnfbench/Cargo.toml -- \
//!     --workload onboard|northbound|lifecycle --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when any correctness check fails. See README.md.

mod checks;
mod common;
mod lifecycle;
mod northbound;
mod onboard;
mod probes;
mod trace;
mod util;
mod wrappers;

use common::{Config, Metric, Outcome};
use std::fmt::Write as _;

fn usage() -> ! {
    eprintln!(
        "usage: vnfbench --workload onboard|northbound|lifecycle --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Config) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    if cfg.seconds == 0 {
        usage();
    }
    (workload.unwrap_or_else(|| usage()), cfg)
}

fn render(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed
    )
}

fn main() {
    let (workload, cfg) = parse_args();
    let outcome = match workload.as_str() {
        "onboard" => onboard::run(&cfg),
        "northbound" => northbound::run(&cfg),
        "lifecycle" => lifecycle::run(&cfg),
        _ => usage(),
    };
    let metrics = if cfg.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for (name, value, unit) in metrics {
        eprintln!("  {name:<32} {value:>14.4} {unit}");
    }
    for error in &outcome.errors {
        eprintln!("CHECK FAILED: {error}");
    }
    println!("{}", render(&outcome, metrics));
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, run briefly, passes its own correctness checks;
    /// the traced form also yields the per-layer metrics. The checks'
    /// negative controls are the unit tests in `checks`.
    #[test]
    fn short_runs_pass_their_checks() {
        for (workload, trace) in [
            ("onboard", false),
            ("northbound", false),
            ("lifecycle", true),
        ] {
            let cfg = Config {
                seed: 3,
                seconds: 1,
                trace,
            };
            let outcome = match workload {
                "onboard" => onboard::run(&cfg),
                "northbound" => northbound::run(&cfg),
                _ => lifecycle::run(&cfg),
            };
            assert!(
                outcome.errors.is_empty(),
                "{workload}: {:?}",
                outcome.errors
            );
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{workload}");
            assert!(outcome.end_to_end.iter().all(|m| m.1 > 0.0), "{workload}");
            assert_eq!(outcome.per_layer.is_empty(), !trace, "{workload}");
        }
    }
}
