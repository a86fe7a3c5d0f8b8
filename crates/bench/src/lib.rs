#![warn(missing_docs)]
//! Shared harness for the table-regenerating binaries.
//!
//! Every binary accepts `--paper` for full scale (slow) and defaults to a
//! quick scale that reproduces the tables' *shape* in minutes. See
//! `EXPERIMENTS.md` at the repository root for recorded outputs.

use qor_core::TrainOptions;

pub mod fleet_scaling;
pub mod fuzz;
pub mod incr_sweep;
pub mod trajectory;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Minutes-scale run (default).
    #[default]
    Quick,
    /// Paper-scale run (hundreds of designs per kernel, 250 epochs).
    Paper,
}

/// Parsed command-line options shared by the binaries.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Selected scale.
    pub scale: Scale,
    /// Optional cap override for designs per kernel.
    pub designs: Option<usize>,
    /// Optional epoch override.
    pub epochs: Option<usize>,
    /// Optional cap on DSE configurations per kernel.
    pub dse_configs: Option<usize>,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// Recognized flags: `--paper`, `--quick`, `--designs N`, `--epochs N`,
    /// `--dse-configs N`.
    pub fn parse() -> Self {
        let mut cli = Cli::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--paper" => cli.scale = Scale::Paper,
                "--quick" => cli.scale = Scale::Quick,
                "--designs" => {
                    i += 1;
                    cli.designs = args.get(i).and_then(|v| v.parse().ok());
                }
                "--epochs" => {
                    i += 1;
                    cli.epochs = args.get(i).and_then(|v| v.parse().ok());
                }
                "--dse-configs" => {
                    i += 1;
                    cli.dse_configs = args.get(i).and_then(|v| v.parse().ok());
                }
                other => eprintln!("ignoring unknown flag {other:?}"),
            }
            i += 1;
        }
        cli
    }

    /// Hierarchical-model training options at this scale.
    pub fn train_options(&self) -> TrainOptions {
        let mut opts = match self.scale {
            Scale::Quick => TrainOptions::quick(),
            Scale::Paper => TrainOptions::paper(),
        };
        if let Some(d) = self.designs {
            opts = opts.with_max_designs(d);
        }
        if let Some(e) = self.epochs {
            opts = opts.with_epochs(e);
        }
        opts
    }

    /// Cap on DSE configurations per kernel (0 = full space).
    pub fn dse_cap(&self) -> usize {
        self.dse_configs.unwrap_or(match self.scale {
            Scale::Quick => 400,
            Scale::Paper => 0,
        })
    }

    /// Baseline training options consistent with [`Cli::train_options`].
    pub fn baseline_options(&self) -> dse::BaselineOptions {
        let t = self.train_options();
        dse::BaselineOptions {
            conv: t.conv,
            hidden: t.hidden,
            epochs: t.inner_epochs,
            batch_size: t.batch_size,
            lr: t.lr,
            seed: t.seed ^ 0x55,
            graph_max_nodes: t.graph_max_nodes,
        }
    }
}

/// Prints an aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::from("|");
    for (c, w) in cells.iter().zip(widths) {
        out.push_str(&format!(" {c:>w$} |", w = w));
    }
    out
}

/// Formats a percentage cell.
pub fn pct(v: f32) -> String {
    format!("{v:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_defaults() {
        let cli = Cli::default();
        let opts = cli.train_options();
        assert!(opts.inner_epochs <= 60);
        assert_eq!(cli.dse_cap(), 400);
    }

    #[test]
    fn overrides_apply() {
        let cli = Cli {
            scale: Scale::Paper,
            designs: Some(10),
            epochs: Some(3),
            dse_configs: Some(25),
        };
        let opts = cli.train_options();
        assert_eq!(opts.data.max_designs_per_kernel, 10);
        assert_eq!(opts.inner_epochs, 3);
        assert_eq!(cli.dse_cap(), 25);
    }

    #[test]
    fn row_formats_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "|   a |   bb |");
    }
}
