//! Inputs shared by the workloads: the trained model, lowering, the
//! design spaces, and the benchmark's own small HTTP client.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use hir::Function;
use pragma::PragmaConfig;
use qor_core::{HierarchicalModel, LabeledDesigns, TrainOptions};

/// Epochs of every fit: the served model's and each `train_fit` fit.
/// Ten epochs of the quick dataset keep a fit near 3.5 s on two cores,
/// while the fitted model lands well inside the ADRS and MAPE bounds that
/// an untrained model fails (six epochs left the test MAPE swinging from
/// 35% to 77% with the initialisation seed).
pub const EPOCHS: usize = 10;

/// Setups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The model scale: the quick configuration at [`EPOCHS`], with the
/// crate's fixed weight and data seeds.
pub fn train_options() -> TrainOptions {
    TrainOptions::quick().with_epochs(EPOCHS)
}

/// Parses and lowers `top` from `source` through `frontc` and `hir`.
///
/// # Errors
///
/// The front-end or lowering error, as text.
pub fn lower(top: &str, source: &str) -> Result<Function, String> {
    let program = frontc::parse(source).map_err(|e| format!("{top}: parse: {e}"))?;
    let module = hir::lower(&program).map_err(|e| format!("{top}: lower: {e}"))?;
    module
        .function(top)
        .cloned()
        .ok_or_else(|| format!("{top}: no such function"))
}

/// A bundled kernel lowered by the benchmark, with its full design space.
pub struct KernelSpace {
    /// Kernel name.
    pub name: &'static str,
    /// The lowered function.
    pub func: Arc<Function>,
    /// Every configuration of its space, in enumeration order.
    pub configs: Vec<PragmaConfig>,
}

/// Lowers and enumerates the named bundled kernels.
///
/// # Errors
///
/// Lowering errors.
pub fn kernel_spaces(names: &[&'static str]) -> Result<Vec<KernelSpace>, String> {
    names
        .iter()
        .map(|&name| {
            let source = kernels::kernel_source(name).ok_or(format!("{name}: not bundled"))?;
            let func = lower(name, source)?;
            let configs = kernels::design_space(&func).enumerate();
            Ok(KernelSpace {
                name,
                func: Arc::new(func),
                configs,
            })
        })
        .collect()
}

/// Labels the quick dataset (12 training kernels × up to 60 designs) with
/// `hlsim`.
///
/// # Errors
///
/// Labelling errors.
pub fn label() -> Result<LabeledDesigns, String> {
    qor_core::generate(&train_options().data).map_err(|e| format!("labelling: {e}"))
}

/// Labels the dataset and trains the model at the fixed scale, returning
/// its checkpoint bytes (every session and the reference model load from
/// these, so they all hold the same weights).
///
/// # Errors
///
/// Labelling or training errors.
pub fn trained_checkpoint() -> Result<Vec<u8>, String> {
    let designs = label()?;
    let (model, _) = HierarchicalModel::train_with_designs(&train_options(), &designs)
        .map_err(|e| format!("training: {e}"))?;
    Ok(serve::save_model(&model))
}

/// Loads a checkpoint made by [`trained_checkpoint`].
///
/// # Errors
///
/// Checkpoint decoding errors.
pub fn load(ckpt: &[u8]) -> Result<HierarchicalModel, String> {
    serve::load_model(ckpt).map_err(|e| format!("checkpoint: {e}"))
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run, in clock ticks summed over CPUs (the `steal` column
/// of `/proc/stat`); 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sends one HTTP/1.1 request on a fresh connection and returns
/// `(status, body)`. Written here rather than taken from `serve`, so the
/// client side of every timed round trip stays fixed while the server
/// changes.
///
/// # Errors
///
/// Socket errors; a reply without a status line is `InvalidData`.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP reply");
    let (head, rest) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, rest.to_string()))
}

/// FNV-1a over bytes (a determinism witness between repeated setups).
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
