#![warn(missing_docs)]
//! Shared harness for the table-regenerating binaries.
//!
//! Every binary accepts `--paper` for full scale (slow) and defaults to a
//! quick scale that reproduces the tables' *shape* in minutes. See
//! `EXPERIMENTS.md` at the repository root for recorded outputs.

use qor_core::TrainOptions;

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
    /// Parses `std::env::args`; on a bad flag value prints the error and
    /// exits with code 2.
    ///
    /// Recognized flags: `--paper`, `--quick`, `--designs N`, `--epochs N`,
    /// `--dse-configs N`.
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses `args` (without the program name), as [`Cli::parse`].
    ///
    /// # Errors
    ///
    /// A numeric flag whose value is missing or not a non-negative integer.
    pub fn parse_from(args: &[String]) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut count = || -> Result<Option<usize>, String> {
                let value = args.next().ok_or(format!("{flag} needs a value"))?;
                let n = value
                    .parse()
                    .map_err(|_| format!("{flag} {value:?}: not a count"))?;
                Ok(Some(n))
            };
            match flag.as_str() {
                "--paper" => cli.scale = Scale::Paper,
                "--quick" => cli.scale = Scale::Quick,
                "--designs" => cli.designs = count()?,
                "--epochs" => cli.epochs = count()?,
                "--dse-configs" => cli.dse_configs = count()?,
                other => eprintln!("ignoring unknown flag {other:?}"),
            }
        }
        Ok(cli)
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

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::parse_from(&args)
    }

    #[test]
    fn parse_reads_every_flag() {
        let cli = parse(&["--paper", "--designs", "10", "--epochs", "3"]).unwrap();
        assert_eq!(cli.scale, Scale::Paper);
        assert_eq!((cli.designs, cli.epochs), (Some(10), Some(3)));
        let cli = parse(&["--dse-configs", "0", "--quick"]).unwrap();
        assert_eq!((cli.scale, cli.dse_configs), (Scale::Quick, Some(0)));
        assert_eq!(cli.dse_cap(), 0);
    }

    #[test]
    fn parse_refuses_bad_or_missing_values() {
        for (args, flag) in [
            (&["--designs", "x"][..], "--designs"),
            (&["--epochs", "1e3"], "--epochs"),
            (&["--dse-configs", "-1"], "--dse-configs"),
            (&["--designs"], "--designs"),
            (&["--paper", "--epochs"], "--epochs"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(flag), "{args:?}: {err}");
        }
    }

    #[test]
    fn row_formats_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "|   a |   bb |");
    }
}
