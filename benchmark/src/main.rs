//! End-to-end and per-layer benchmark of the hierarchical QoR predictor.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload dse_sweep|serve_mixed|train_fit --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) time each layer from outside and print the per-layer
//! metrics. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; lines before it starting with `#`
//! are reference figures. The exit code is non-zero when an output check
//! fails. See `benchmark/README.md` for the workloads and metrics.

mod dse_sweep;
mod encode;
mod ladder;
mod reference;
mod serve_mixed;
mod setup;
mod trace;
mod train_fit;

use std::time::Instant;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (errors, non-200 replies, per-item errors).
    pub failed: u64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Reference figures printed before the result line.
    pub info: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a reference figure.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Fails the run's checks unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "dse_sweep" => dse_sweep::run(args),
        "serve_mixed" => serve_mixed::run(args),
        "train_fit" => train_fit::run(args),
        other => Err(format!(
            "unknown workload {other:?} (dse_sweep, serve_mixed, train_fit)"
        )),
    }
}

/// Runs `setup` [`setup::SETUP_REPEATS`] times (once when traced) and
/// returns the last result, the median setup time in seconds, and whether
/// every repeat produced the same `witness`.
pub fn repeated_setup<T>(
    args: &Args,
    mut setup: impl FnMut() -> Result<T, String>,
    witness: impl Fn(&T) -> u64,
) -> Result<(T, f64, bool), String> {
    let repeats = if args.trace { 1 } else { setup::SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    let mut witnesses = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        let value = setup()?;
        times.push(t.elapsed().as_secs_f64());
        witnesses.push(witness(&value));
        last = Some(value);
    }
    let same = witnesses.windows(2).all(|w| w[0] == w[1]);
    Ok((
        last.expect("at least one setup"),
        reference::median(&times),
        same,
    ))
}

fn result_line(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("usage: --workload dse_sweep|serve_mixed|train_fit --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, _) in outcome.metrics.clone() {
        outcome.check(value.is_finite(), || {
            format!("metric {name} was not measured")
        });
    }
    for line in &outcome.info {
        println!("# {line}");
    }
    for p in &outcome.problems {
        println!("# CHECK FAILED: {p}");
    }
    if outcome.failed > 0 {
        println!(
            "# {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", result_line(&outcome, correct));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = parse_args(&argv(
            "--workload dse_sweep --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "dse_sweep".into(),
                seed: 9,
                seconds: 2.5,
                trace: true
            }
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
        assert!(run(&Args {
            workload: "nope".into(),
            ..a
        })
        .is_err());
    }

    #[test]
    fn result_line_has_exactly_the_output_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 1.25, "s");
        o.metric("points_per_s", 2000.5, "1/s");
        let line = result_line(&o, true);
        let doc = serve::json::parse(&line).unwrap();
        assert_eq!(
            serve::json::field(&doc, "attempted").and_then(serve::json::as_u64),
            Some(3)
        );
        let m = serve::json::field(&doc, "metrics").unwrap();
        let s = serve::json::field(m, "setup_s").unwrap();
        assert_eq!(
            serve::json::field(s, "value").and_then(serve::json::as_f64),
            Some(1.25)
        );
        assert_eq!(
            serve::json::field(s, "unit").and_then(serve::json::as_str),
            Some("s")
        );
    }
}
