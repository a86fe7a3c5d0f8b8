#![warn(missing_docs)]
//! Simulated HLS + place-and-route flow (the ground-truth QoR oracle).
//!
//! The paper trains on labels produced by Vitis HLS 2022.1 + Vivado 2022.1
//! targeting a ZCU102. This crate substitutes that tool chain with a
//! deterministic analytic model that exercises the same phenomena the GNN
//! must learn:
//!
//! * **scheduling** — delay-chaining list scheduling of each loop body under
//!   memory-port constraints ([`schedule_ops`]),
//! * **initiation intervals** — `II = max(II_rec, II_res)` with recurrence
//!   cycles and banked memory ports (the paper's §III-B formula),
//! * **hierarchical latency** — pipelined loops cost `IL + II·(TC−1)`,
//!   non-pipelined loops cost `TC·(IL_body + overhead)`, composed bottom-up
//!   over the loop tree with unrolling replication,
//! * **resources** — functional-unit sharing for non-pipelined regions,
//!   no sharing plus pipeline registers for pipelined regions, FSM/mux/
//!   banking overheads,
//! * **post-route effects** — logic optimization, congestion-dependent LUT
//!   inflation and a deterministic, design-fingerprint-seeded placement
//!   variance (so post-route labels differ from post-HLS estimates in a
//!   structured way).
//!
//! Latency labels are HLS-level and resource labels are post-route, matching
//! where the paper reads each metric. [`evaluate_pre_route`] exposes the
//! post-HLS resource estimates used to train the GNN-DSE-style baseline.
//!
//! # Example
//!
//! ```
//! let src = r#"
//! void scale(float x[32], float y[32]) {
//!     for (int i = 0; i < 32; i++) { y[i] = x[i] * 2.0; }
//! }
//! "#;
//! let module = hir::lower(&frontc::parse(src)?)?;
//! let func = module.function("scale").unwrap();
//! let report = hlsim::evaluate(func, &pragma::PragmaConfig::default())?;
//! assert!(report.top.latency > 32); // at least one cycle per iteration
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod model;
mod oplib;
mod sched;

pub use model::{
    analytic_ii, evaluate, evaluate_pre_route, tool_runtime_secs, EvalError, LoopQor, QorReport,
};
pub use oplib::{OpCost, OpLibrary};
pub use sched::{schedule_ops, PortBudget, ScheduleResult};

/// Post-route quality-of-results of a design (or of one loop region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Qor {
    /// Total latency in clock cycles.
    pub latency: u64,
    /// Look-up tables.
    pub lut: u64,
    /// Flip-flops.
    pub ff: u64,
    /// DSP blocks.
    pub dsp: u64,
}

impl std::fmt::Display for Qor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cycles, {} LUT, {} FF, {} DSP",
            self.latency, self.lut, self.ff, self.dsp
        )
    }
}

impl Qor {
    /// The four metrics as an array `[latency, lut, ff, dsp]`.
    pub fn as_array(&self) -> [u64; 4] {
        [self.latency, self.lut, self.ff, self.dsp]
    }
}
