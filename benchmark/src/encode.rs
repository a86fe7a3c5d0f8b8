//! `PragmaConfig` → `/v1/predict` JSON.
//!
//! The server has no public encoder, and the bundled design spaces bind
//! array partitions to loop unrolls, so an encoder that dropped the
//! `"arrays"` block would ask the server for a different design than the
//! one the benchmark checks against.

use pragma::{PartitionKind, PragmaConfig, Unroll};

/// A JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `"config"` object: every loop pragma and every array partition.
pub fn config_json(cfg: &PragmaConfig) -> String {
    let loops: Vec<String> = cfg
        .loops()
        .map(|(id, p)| {
            let path: Vec<String> = id.path().iter().map(u16::to_string).collect();
            let unroll = match p.unroll {
                Unroll::Off => "1".to_string(),
                Unroll::Factor(f) => f.to_string(),
                Unroll::Full => "\"full\"".to_string(),
            };
            format!(
                r#"{{"loop":[{}],"pipeline":{},"unroll":{unroll},"flatten":{}}}"#,
                path.join(","),
                p.pipeline,
                p.flatten
            )
        })
        .collect();
    let mut arrays = Vec::new();
    for (name, parts) in cfg.arrays() {
        for (d, p) in parts.iter().enumerate() {
            let kind = match p.kind {
                PartitionKind::Cyclic => "cyclic",
                PartitionKind::Block => "block",
                PartitionKind::Complete => "complete",
            };
            arrays.push(format!(
                r#"{{"array":{},"dim":{},"kind":"{kind}","factor":{}}}"#,
                json_str(name),
                d + 1,
                p.factor
            ));
        }
    }
    format!(
        r#"{{"loops":[{}],"arrays":[{}]}}"#,
        loops.join(","),
        arrays.join(",")
    )
}

/// What one prediction item names: a bundled kernel or an inline source.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A bundled kernel by name.
    Kernel(&'static str),
    /// Inline HLS-C with its top function.
    Source {
        /// Top function name.
        top: String,
        /// Source text.
        text: String,
    },
}

/// One `/v1/predict` item object.
pub fn item_json(target: &Target, cfg: &PragmaConfig) -> String {
    match target {
        Target::Kernel(name) => {
            format!(
                r#"{{"kernel":{},"config":{}}}"#,
                json_str(name),
                config_json(cfg)
            )
        }
        Target::Source { top, text } => format!(
            r#"{{"source":{},"top":{},"config":{}}}"#,
            json_str(text),
            json_str(top),
            config_json(cfg)
        ),
    }
}

/// A `{"requests":[…]}` body.
pub fn batch_json(items: &[String]) -> String {
    format!(r#"{{"requests":[{}]}}"#, items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_mixed::qor_of;
    use qor_core::{HierarchicalModel, Session, TrainOptions};
    use serve::{http, json, Server};

    /// Configurations of bundled kernels whose space binds partitions.
    fn partitioned_configs() -> Vec<(&'static str, pragma::PragmaConfig)> {
        let mut out = Vec::new();
        for kernel in ["mvt", "gemm", "stencil2d", "symm"] {
            let func = kernels::lower_kernel(kernel).unwrap();
            let configs = kernels::design_space(&func).enumerate();
            let step = (configs.len() / 6).max(1);
            out.extend(
                configs
                    .into_iter()
                    .step_by(step)
                    .filter(|c| c.arrays().any(|(_, p)| p.iter().any(|p| p.factor > 1)))
                    .take(4)
                    .map(|c| (kernel, c)),
            );
        }
        out
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
        let parsed = json::parse(&json_str("x\ty\"z")).unwrap();
        assert_eq!(json::as_str(&parsed), Some("x\ty\"z"));
    }

    #[test]
    fn partitions_change_the_design_so_the_encoder_must_carry_them() {
        let model = HierarchicalModel::new(&TrainOptions::quick().with_hidden(8));
        let configs = partitioned_configs();
        assert!(configs.len() >= 8, "too few partitioned configs");
        let mut differing = 0;
        for (kernel, cfg) in &configs {
            let func = std::sync::Arc::new(kernels::lower_kernel(kernel).unwrap());
            let mut loops_only = pragma::PragmaConfig::new();
            for (id, p) in cfg.loops() {
                loops_only.set_pipeline(id.clone(), p.pipeline);
                loops_only.set_unroll(id.clone(), p.unroll);
                loops_only.set_flatten(id.clone(), p.flatten);
            }
            let full = model.prepare(func.clone(), cfg.clone()).digest();
            let dropped = model.prepare(func, loops_only).digest();
            differing += usize::from(full != dropped);
        }
        assert!(differing > 0, "no configuration depends on its partitions");
    }

    #[test]
    fn partitioned_configs_predict_bit_equal_over_http_and_in_process() {
        let opts = TrainOptions::quick().with_hidden(8).with_seed(3);
        let reference = HierarchicalModel::new(&opts);
        let server = Server::bind("127.0.0.1:0", Session::new(HierarchicalModel::new(&opts)))
            .unwrap()
            .spawn()
            .unwrap();
        let configs = partitioned_configs();
        let mut items = Vec::new();
        for (kernel, cfg) in &configs {
            let func = kernels::lower_kernel(kernel).unwrap();
            let want = reference.predict(&func, cfg);
            let body = item_json(&Target::Kernel(kernel), cfg);
            let (status, reply) =
                http::client_request(server.addr(), "POST", "/v1/predict", Some(&body)).unwrap();
            assert_eq!(status, 200, "{reply}");
            assert_eq!(
                qor_of(&json::parse(&reply).unwrap()),
                Some(want),
                "{kernel} {body}"
            );
            items.push((body, want));
        }
        // the same items as one "requests" array, plus an inline source
        let src = kernels::kernel_source("mvt").unwrap();
        let (kernel, cfg) = &configs[0];
        assert_eq!(*kernel, "mvt");
        let inline = item_json(
            &Target::Source {
                top: "mvt".into(),
                text: src.into(),
            },
            cfg,
        );
        let mut bodies: Vec<String> = items.iter().map(|(b, _)| b.clone()).collect();
        bodies.push(inline);
        let (status, reply) = http::client_request(
            server.addr(),
            "POST",
            "/v1/predict",
            Some(&batch_json(&bodies)),
        )
        .unwrap();
        assert_eq!(status, 200, "{reply}");
        let doc = json::parse(&reply).unwrap();
        let results = json::field(&doc, "results")
            .and_then(json::as_array)
            .unwrap();
        assert_eq!(results.len(), items.len() + 1);
        for (got, (_, want)) in results.iter().zip(&items) {
            assert_eq!(qor_of(got), Some(*want));
        }
        assert_eq!(qor_of(&results[items.len()]), Some(items[0].1));
        server.shutdown();
    }
}
